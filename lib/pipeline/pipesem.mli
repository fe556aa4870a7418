(** Cycle-accurate simulation of the transformed (pipelined) machine.

    Each cycle:

    + read the full bits, bind the ["$full_k"] / ["$ext_k"] free
      inputs, and evaluate the synthesized signal definitions in order
      (hits, valid bits, forwarded operands [g_k], data hazards);
    + run the stall engine (paper §3) to obtain stalls, rollbacks and
      update enables;
    + for every stage with [ue_k], evaluate its data paths against the
      pre-edge state; for a firing speculation, evaluate its rollback
      writes; commit everything as one clock edge, together with the
      [fullb] and instruction-tag updates.

    Instruction tags track which sequential instruction index occupies
    each stage — the simulator's ground-truth scheduling function,
    which the paper's inductive [I(k,T)] is checked against (see
    {!Schedule}). *)

type ext_model = stage:int -> cycle:int -> bool
(** External stall injection ([ext_k], e.g. slow memory). *)

type retire_kind =
  | Normal                  (** left the last stage via [ue_{n-1}] *)
  | Via_rollback of string  (** retired by a [retires] speculation's
                                rollback writes (precise interrupts) *)

type cycle_record = {
  cycle : int;
  full : bool array;
  stall : bool array;
  dhaz : bool array;
  ext : bool array;
  rollback : bool array;
  ue : bool array;
  tags : int option array;  (** pre-edge instruction tags per stage *)
}

type callbacks = {
  on_signals : cycle:int -> (string -> Hw.Bitvec.t option) -> unit;
      (** after the synthesized combinational signals have been
          evaluated for the cycle, before the stall engine: the lookup
          resolves synthesized signal names, free inputs
          (["$full_k"]/["$ext_k"]) and scalar registers, all pre-edge.
          Used by {!Tracer}. *)
  on_cycle : cycle_record -> unit;
      (** after signal computation, before the clock edge *)
  on_edge : cycle_record -> Machine.State.t -> unit;
      (** after the clock edge: the record describes the cycle that
          just committed (pre-edge tags), the state is post-edge.
          Used by the data-consistency checker. *)
  on_retire : tag:int -> kind:retire_kind -> Machine.State.t -> unit;
      (** after the clock edge of the retiring cycle; the state passed
          is live — snapshot what you need *)
}

val no_callbacks : callbacks

(** {1 Fault injection}

    Hooks that place a fault exactly where it would sit in the
    generated machine; built by [Fault.Inject], consumed by the
    detection-coverage campaigns.  With an injection present, the run
    loop relaxes the control invariants of the unfaulted engine (a
    stage may fire with no instruction in flight — it then simply
    retires nothing) instead of asserting. *)

type injection = {
  inj_fullb : cycle:int -> bool array -> bool array;
      (** applied to the full-bit register {e outputs} before the
          cycle's signal evaluation and the stall engine (stuck-at
          faults on [full_k]); must not mutate its argument *)
  inj_compute :
    cycle:int ->
    compute:(dhaz:bool array -> Stall_engine.signals) ->
    dhaz:bool array ->
    Stall_engine.signals;
      (** middleware around the stall engine: perturb [dhaz] before
          calling [compute] (dropped-interlock faults) or rewrite the
          returned signals (stuck-at faults on [stall_k], [ue_k] and
          the rollback/squash wires) *)
  inj_edge : cycle:int -> Machine.State.t -> unit;
      (** right after the clock edge, before the [on_edge] callback:
          transient single-event bit flips in pipeline registers *)
}

val no_injection : injection
(** The identity injection ([run ?inject:None] behaves identically). *)

(** {1 What ends a run}

    A run ends when [stop_after] instructions have retired, or at the
    first sign that it cannot satisfy liveness (paper §6.3):

    - {e deadlock}: [4 * n_stages + 64] consecutive cycles in which no
      stage updates and nothing retires (checked first);
    - {e liveness bound}: the end of a cycle after which any later
      retirement would close a gap wider than {!liveness_bound}.  A
      machine that keeps its stages busy without retiring anything (a
      livelock) stops here: a 3-stage machine that never retires
      stops after 88 cycles.

    Every run therefore ends: a run that keeps retiring within the
    bound completes.  There is no other cycle budget. *)

type outcome =
  | Completed       (** the requested number of instructions retired *)
  | Deadlocked      (** nothing moved for the deadlock window *)
  | Out_of_cycles
      (** stopped at the liveness bound: no retirement can come soon
          enough any more *)

val liveness_bound : n_stages:int -> int
(** [8 * n_stages + 64]: the widest gap between consecutive
    retirements (and from reset to the first) that a run may take,
    comfortably above any legitimate stall run of the machines in this
    repository.  {!Proof_engine.Liveness} reports against it. *)

val retirement_gap : last:int -> cycle:int -> int
(** The gap a retirement in cycle [cycle] closes after the previous
    one, in cycle [last] ([0] before the first retirement): both end
    cycles count.  The cycle drivers stop a run once the gap of any
    later retirement would exceed {!liveness_bound}. *)

type stats = {
  cycles : int;
  retired : int;
  fetch_stall_cycles : int;  (** cycles in which stage 0 was stalled *)
  dhaz_cycles : int;   (** cycles in which some stage had a data hazard *)
  ext_cycles : int;    (** cycles in which some stage had an external stall *)
  rollbacks : int;
  squashed : int;      (** instructions evicted (excluding retiring ones) *)
}

type result = {
  outcome : outcome;
  stats : stats;
  state : Machine.State.t;  (** final register state *)
}

type compiled
(** A transformed machine compiled to a single evaluation plan: the
    synthesized signals, every speculation's mispredict predicate, all
    stage writes and all rollback writes share one hash-consed
    instruction tape ({!Hw.Plan}), evaluated once per cycle over
    integer slots instead of re-walking expression trees against a
    string-keyed overlay. *)

val compile : Transform.t -> compiled
(** Compile once; reuse across {!run_compiled} / {!run_session} calls
    (the plan is immutable — instances are private to sessions).

    The plan is the hash-consed tape {!Hw.Plan.build} returns, and it
    is the one tape of the shape: the scalar, session and lanes engines
    all bind it and run it whole every cycle, so a run's [Plan_ops] is
    its [Plan_runs] times {!Hw.Plan.n_instrs}.  Every synthesized
    signal stays readable by name on the running instance (the
    [on_signals] callback view used by the tracer and hazard
    attribution).

    Thread safety: a [compiled] value is immutable after [compile] and
    may be shared across {!Exec.Pool} domains.  Mutable evaluation
    state ({!Machine.State.t} + {!Hw.Plan.instance}) lives in a
    {!session}, which is single-domain: either allocate a fresh one
    per run ({!run_compiled} does) or — the batched-sweep fast path —
    reuse the calling domain's cached session ({!local_session}), so
    pool workers bind a plan once per domain rather than once per
    task.  Concurrent runs over one [compiled] never share mutable
    state (the {!Hw.Plan} plan/instance contract). *)

val transform : compiled -> Transform.t
val plan : compiled -> Hw.Plan.t
(** The evaluation tape every engine over this compile runs. *)

val rebind : compiled -> Transform.t -> compiled
(** [rebind c t] reuses [c]'s evaluation plan for transform [t], which
    must have the {e same shape} as [c]'s transform: identical stage
    count, register names, synthesized signal names, hazard structure
    and speculations (labels and resolve stages) — i.e. the two
    transforms come from the same machine builder and differ only in
    initial values (the program image).
    This is the batched-path contract from the sweep engine, promoted
    to a public operation: plan slots are shape-only, and state
    creation reads initial values from the {e rebound} transform, and
    the speculation tables are re-keyed onto [t]'s speculation
    records, so runs of the result behave exactly as if [t] had been
    compiled directly.  The service layer uses this to compile each machine
    shape once and serve every program against it.

    @raise Invalid_argument when the shapes differ. *)

val run_compiled :
  ?ext:ext_model ->
  ?callbacks:callbacks ->
  ?inject:injection ->
  ?cancel:Exec.Cancel.token ->
  stop_after:int ->
  compiled ->
  result
(** Simulate a precompiled machine from the initial state until
    [stop_after] instructions have retired, or until it deadlocks or
    reaches the liveness bound (see {!outcome}).

    [cancel] is polled once per cycle; a tripped token aborts the run
    by raising {!Exec.Cancel.Cancelled} — the campaign driver's
    backstop against mutants whose simulation never converges. *)

(** {1 Sessions (compile once, run many programs)}

    For BMC sweeps, workload sweeps and fault campaigns the machine
    {e shape} is fixed and only the initial register-file contents
    (the program, its data) vary per point.  A session makes the
    program data instead of structure: it owns one persistent
    {!Machine.State.t} with the compiled plan bound to it once;
    {!run_session} resets the state in place — plan bindings survive,
    see {!Machine.State.reset} — applies per-program initial-value
    overrides, and replays the machine.  Cost per point drops from
    build + compile + bind + run to reset + run.

    A session is single-domain mutable state.  A run's [result.state]
    is the session's own state, live only until the next
    [run_session] on the same session — snapshot what must survive
    (the checkers do). *)

type session

val session : compiled -> session
(** A fresh session (own state, plan bound once). *)

val local_session : compiled -> session
(** The calling domain's cached session for this compiled machine
    (physical equality), created on first use.  {!Exec.Pool} workers
    use this so instances are allocated once per domain, not per
    task.  Do not use from a task that re-enters the pool (and may
    help execute other tasks) while a run on the session is in
    progress. *)

val run_session :
  ?ext:ext_model ->
  ?callbacks:callbacks ->
  ?inject:injection ->
  ?cancel:Exec.Cancel.token ->
  ?init:(string * Machine.Value.t) list ->
  stop_after:int ->
  session ->
  result
(** Reset the session state — [init] entries (deep-copied) override
    the spec's initial values, see {!Machine.State.reset} — and
    simulate as {!run_compiled} does.  The reset also recovers the
    session after a cancelled, faulted or raising run, so pooled
    sessions need no cleanup between tasks. *)

val run :
  ?ext:ext_model ->
  ?callbacks:callbacks ->
  ?inject:injection ->
  ?cancel:Exec.Cancel.token ->
  stop_after:int ->
  Transform.t ->
  result
(** {!compile} + {!run_compiled}. *)

val run_reference :
  ?ext:ext_model ->
  ?callbacks:callbacks ->
  ?inject:injection ->
  ?cancel:Exec.Cancel.token ->
  stop_after:int ->
  Transform.t ->
  result
(** Closure-path compatibility shim: the original tree-walking
    interpreter with a per-cycle string-keyed overlay, driving the
    {e same} cycle loop as the compiled path (stall engine, tags,
    retirement, statistics are shared code).  Kept as the oracle for
    differential tests and the interpreted baseline in the benchmark
    suite; simulation users should call {!run}. *)

val cpi : stats -> float
(** Cycles per retired instruction. *)

(** {1 Bit-parallel lane runs (up to 62 programs per cycle loop)}

    The lane mirror of a session: the compiled control/data plan
    evaluated as a {!Hw.Plan.lanes} pack over a {!Machine.State.lanes}
    SoA state, advancing every lane one cycle per loop iteration.  The
    per-cycle decision order is identical to the scalar loop, so each
    lane's outcome, statistics and observer view match a solo scalar
    run of the same program bit for bit.

    Restrictions: injection hooks are not supported (fault campaigns
    only use lanes for structural mutants, whose injection record is
    the physical {!no_injection}); the [ext] model is queried once per
    global cycle and shared by all lanes, so it must be a pure function
    of [stage]/[cycle].  Work counts are staged into the caller's
    {!Obs.Counters.ledger}; on any exception the caller discards the
    ledger and replays the lanes through the scalar path. *)

type lane_result = {
  lr_outcome : outcome;
  lr_stats : stats;
  lr_divergence : int;
      (** first cycle this lane's stall/rollback bits split from the
          pack's majority; [-1] if it never diverged *)
}

type lane_obs = {
  lob_pre_edge :
    cycle:int -> Stall_engine.lane_signals -> tags:int array array ->
    running:int -> unit;
      (** after signal evaluation, before the clock edge.  [tags] is
          stage-major, lane-indexed, [-1] = no tag, pre-shift; the
          arrays are live — read only, do not retain. *)
  lob_post_edge :
    cycle:int -> Stall_engine.lane_signals -> tags:int array array ->
    running:int -> unit;
      (** after the edge committed stage and rollback writes; [tags]
          still pre-shift *)
  lob_retire : cycle:int -> lane:int -> tag:int -> rollback:string option -> unit;
      (** per retirement, in (tag, kind) order within a lane *)
}

val no_lane_obs : lane_obs

type lane_session

val lanes_session : ?capacity:int -> compiled -> lane_session
(** Fresh SoA state + a lanes instance of {!plan} bound once; reusable
    across {!run_lanes_session} calls. *)

val lanes_state : lane_session -> Machine.State.lanes

val local_lanes_session : compiled -> lane_session
(** The calling domain's cached lane session (physical equality on
    [compiled]), capacity {!Hw.Lanes.max_lanes}. *)

val run_lanes_session :
  ?ext:ext_model ->
  ?cancel:Exec.Cancel.token ->
  ?obs:lane_obs ->
  ?faulty:bool ->
  ledger:Obs.Counters.ledger ->
  inits:(string * Machine.Value.t) list array ->
  stop_afters:int array ->
  lane_session ->
  lane_result array
(** Reset lane [l] from [inits.(l)] and simulate until it retires
    [stop_afters.(l)] instructions (per-lane deadlock window and
    liveness bound as in the scalar loop); finished lanes are peeled from the
    pack while the rest keep running.  [faulty] relaxes the
    missing-retire-tag asserts exactly like the scalar loop's
    [inject <> None].  Each cycle the ledger counts one [Plan_runs]
    and {!Hw.Plan.n_instrs} [Plan_ops] per running lane, what a solo
    scalar run of each lane counts.  Raises on any width/shape
    problem — callers discard the ledger and fall back to scalar
    runs. *)
