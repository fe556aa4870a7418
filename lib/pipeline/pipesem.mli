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

(** The one-lane view of a run: what the tracer, hazard attribution,
    coverage and diagram tools observe.  The cycle driver calls these
    through its packed {!observer}, building a [cycle_record] per cycle
    only when callbacks are given. *)
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
          just committed (pre-edge tags), the state is post-edge *)
  on_retire : tag:int -> kind:retire_kind -> Machine.State.t -> unit;
      (** after the clock edge of the retiring cycle; the state passed
          is live — snapshot what you need *)
}

val no_callbacks : callbacks

(** {1 Fault injection}

    Hooks that place a fault exactly where it would sit in the
    generated machine; built by [Fault.Inject], consumed by the
    detection-coverage campaigns.  They act on the cycle driver's
    control words ({!Stall_engine.lane_signals}); an injected run is a
    one-lane run, so every word is [0] or [1].  With an injection
    present, the driver relaxes the control invariants of the
    unfaulted engine (a stage may fire with no instruction in flight —
    it then simply retires nothing) instead of raising. *)

type injection = {
  inj_fullb : cycle:int -> int array -> int array;
      (** applied to the full-bit register {e outputs} before the
          cycle's signal evaluation and the stall engine (stuck-at
          faults on [full_k]); must not mutate its argument *)
  inj_compute :
    cycle:int ->
    compute:(dhaz:int array -> Stall_engine.lane_signals) ->
    dhaz:int array ->
    Stall_engine.lane_signals;
      (** middleware around the stall engine: perturb [dhaz] before
          calling [compute] (dropped-interlock faults) or rewrite the
          returned signals (stuck-at faults on [stall_k], [ue_k] and
          the rollback/squash wires).  [compute] returns the driver's
          own record: copy before changing it. *)
  inj_edge : cycle:int -> Machine.State.t -> unit;
      (** right after the clock edge, before the [on_edge] callback:
          transient single-event bit flips in pipeline registers *)
}

val no_injection : injection
(** The identity injection ([run ?inject:None] behaves identically,
    except that the driver's invariants stay asserted). *)

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
    cycles count.  The cycle driver stops a run once the gap of any
    later retirement would exceed {!liveness_bound}, and
    {!Proof_engine.Symsim} stops each symbolic path by the same
    rule. *)

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
    is the one tape of the shape: the scalar engine and lane packs
    both bind it and run it whole every cycle, so a run's [Plan_ops] is
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
    to a public operation: plan slots are shape-only, speculations are
    addressed by position, and state creation reads initial values
    from the {e rebound} transform, so runs of the result behave
    exactly as if [t] had been compiled directly.  The service layer uses this to compile each machine
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

    For workload sweeps and fault campaigns the machine {e shape} is
    fixed and only the initial register-file contents (the program,
    its data) vary per point.  A session makes the program data
    instead of structure: it owns one persistent {!Machine.State.t}
    with the compiled plan bound to it once; {!run_session} resets the
    state in place — plan bindings survive, see
    {!Machine.State.reset} — applies per-program initial-value
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

val session_state : session -> Machine.State.t
(** The session's state: what its runs read and write. *)

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
(** The original tree-walking interpreter with a per-cycle
    string-keyed overlay, as a one-lane engine of the {e same} cycle
    driver as the compiled path (stall engine, tags, retirement,
    statistics are shared code).  Kept as the oracle for differential
    tests and the interpreted baseline in the benchmark suite;
    simulation users should call {!run}. *)

val cpi : stats -> float
(** Cycles per retired instruction. *)

(** {1 The cycle driver and lane packs}

    Every run above goes through one stall-engine cycle driver that
    advances a {e pack} of lanes: bit [l] of each control word
    ({!Stall_engine.lane_signals}) is lane [l]'s.  The scalar and
    reference engines are one-lane packs whose words are [0] or [1];
    a {!pack} evaluates the compiled plan as a {!Hw.Plan.lanes}
    instance over a {!Machine.State.lanes} SoA state, up to
    {!Hw.Lanes.max_lanes} programs per cycle loop.  Each lane makes
    the decisions of its one-lane run in the same order, so its
    outcome, statistics, observer view and WORK counts are those of
    the one-lane run of its program.

    An {!observer} sees the pack: the [callbacks] above are its
    one-lane adapter. *)

type observer = {
  ob_signals : cycle:int -> (string -> Hw.Bitvec.t option) -> unit;
      (** as [on_signals]; a pack's lookup finds nothing *)
  ob_cycle :
    cycle:int -> running:int -> Stall_engine.lane_signals ->
    dhaz:int array -> ext:int array -> tags:int array array -> unit;
      (** after signal evaluation, before the clock edge.  [running]
          masks the lanes still simulating; [dhaz]/[ext] are the stall
          engine's inputs before any injection; [tags] is stage-major,
          lane-indexed, [-1] = no tag, pre-edge.  All arrays are the
          driver's own: read only, do not retain. *)
  ob_edge :
    cycle:int -> running:int -> Stall_engine.lane_signals ->
    tags:int array array -> unit;
      (** after the clock edge committed stage and rollback writes
          (and an injection's [inj_edge]); [tags] still pre-edge *)
  ob_retire : cycle:int -> lane:int -> tag:int -> kind:retire_kind -> unit;
      (** per retirement, after [ob_edge], in (tag, kind) order within
          a lane *)
}

val no_observer : observer

val record_words : cycle_record -> Stall_engine.lane_signals * int array array
(** A recorded cycle as the one-lane control words and tags an
    observer sees ([rollback_up] re-derived from [rollback]): lets the
    per-cycle checkers ({!Schedule.lemma1_step}, the stall-engine
    invariants) run over recorded or hand-damaged traces. *)

type lane_result = {
  lr_outcome : outcome;
  lr_stats : stats;
}

val run_observed :
  ?ext:ext_model ->
  ?inject:injection ->
  ?cancel:Exec.Cancel.token ->
  ?init:(string * Machine.Value.t) list ->
  ?obs:observer ->
  stop_after:int ->
  session ->
  lane_result
(** {!run_session} with a packed observer instead of callbacks: the
    one-lane run the consistency checker drives. *)

type pack

val pack : compiled -> pack
(** Fresh SoA state ({!Hw.Lanes.max_lanes} lanes) with a lanes
    instance of {!plan} bound once; reusable across {!run_pack}
    calls.  Single-domain mutable state, like a {!session}. *)

val pack_state : pack -> Machine.State.lanes
(** The pack's state: what its runs read and write. *)

val run_pack :
  ?ext:ext_model ->
  ?cancel:Exec.Cancel.token ->
  ?obs:observer ->
  inits:(string * Machine.Value.t) list array ->
  stop_afters:int array ->
  pack ->
  lane_result array
(** Reset lane [l] from [inits.(l)] and simulate until it retires
    [stop_afters.(l)] instructions (per-lane deadlock window and
    liveness bound); finished lanes leave the pack while the rest keep
    running.  The [ext] model is queried once per cycle and shared by
    all lanes, so it must be a pure function of [stage]/[cycle].  Each
    cycle counts one [Plan_runs] and {!Hw.Plan.n_instrs} [Plan_ops]
    per running lane, and the cells each lane writes — what the
    one-lane runs count.  An exception aborts the whole pack. *)
