(** Data consistency (paper §6.2), checked by co-simulation.

    The criterion: let [I(k,T) = i], let [R ∈ out(k)] be a
    programmer-visible register; then the implementation value of [R]
    relates to the specification value [R_S^i] (the correct value right
    before instruction [I_i] executes).  Equivalently, and as checked
    here: right after instruction [i] updates stage [k] ([ue_k] clock
    edge), every visible register of [out(k)] holds [R_S^{i+1}].

    The specification values come from running the prepared sequential
    machine ({!Machine.Seqsem.run}); the implementation values from the
    pipelined simulator, read after each clock edge by the checker's
    observer ({!Pipeline.Pipesem.observer}).  For a speculation with
    [retires = true] (precise interrupts) resolving in the last stage,
    the rollback commit is checked against the full visible state
    [R_S^{i+1}].

    There is one checker.  {!check} and {!check_batched} run it on a
    one-lane run, {!check_lanes} on each lane of a pack; in the same
    pass it checks Lemma 1 ({!Pipeline.Schedule.lemma1_step}) and the
    stall-engine invariants ({!Trace_invariants.step}) once per cycle,
    and accounts the run's liveness gaps.

    A visible register file matches without an entry scan when its
    reference value is physically the image the register was last
    filled from and no write has touched the register since
    ({!Machine.State.holds_image}) — e.g. a DLX data memory before its
    first store, against {!Dlx.Seq_dlx.ref_trace}'s copy-on-write
    snapshots.  The comparison still counts in [edge_checks]; any
    other case compares entries.  Sound under the read-only
    conventions of {!Machine.State}. *)

type violation = {
  at_cycle : int;
  at_stage : int;
  tag : int;       (** instruction index *)
  register : string;
  expected : string;
  got : string;
}

type lemma1_status =
  | Lemma_ok
  | Lemma_skipped_rollback
      (** the trace contained rollbacks; the scheduling-function lemmas
          apply to rollback-free execution (paper §6.1) *)
  | Lemma_failed of Pipeline.Evidence.t
      (** every violation counted, the first
          {!Pipeline.Evidence.shown} messages kept *)

type report = {
  instructions : int;      (** instructions co-checked *)
  edge_checks : int;       (** individual register comparisons made *)
  violations : violation list;
  lemma1 : lemma1_status;
      (** scheduling-function properties on the same run *)
  invariants : (unit, Pipeline.Evidence.t) result;
      (** the stall-engine invariants ({!Trace_invariants}) on the same
          run: every violation counted, the first
          {!Pipeline.Evidence.shown} messages kept *)
  outcome : Pipeline.Pipesem.outcome;
  stats : Pipeline.Pipesem.stats;
  final_visible_match : bool option;
      (** [Some true/false] when the run was rollback-free and retired
          exactly the sequential instruction count: whether the visible
          registers of the last stage match at the end; [None] when the
          comparison does not apply *)
  liveness : Liveness.report;
      (** the liveness account of this same run (its retirements —
          [liveness.checked] — and inter-retirement gaps,
          {!Liveness.default_bound}): equal to a
          standalone {!Liveness.check} of the same plan, [ext], [inject]
          and [stop_after = instructions], without simulating again *)
}

val ok : report -> bool
(** No violations, completed, and Lemma 1 holds (or the trace had
    rollbacks, where Lemma 1 is out of scope). *)

val check :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?reference:Machine.Seqsem.trace ->
  ?compiled:Pipeline.Pipesem.compiled ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  Pipeline.Transform.t ->
  report
(** Run the sequential reference and the pipelined machine on the same
    initial state and compare.  [max_instructions] bounds the
    sequential run (default 200).

    [compiled] supplies a precompiled evaluation plan for [t]
    (obtained from {!Pipeline.Pipesem.compile}), avoiding a
    recompilation when the caller already holds one — e.g.
    {!Workload.Sim} verifying the same machine it simulates.

    [reference] supplies the specification trace explicitly instead of
    running {!Machine.Seqsem} on the base machine.  This is required
    for machines whose sequential description is completed by a
    speculation declaration (paper §5): e.g. with precise interrupts,
    the JISR updates live in the speculation's rollback writes, so the
    plain round-robin sweep does not perform them — the reference is
    then the ISA-level golden model (see [Dlx.Refmodel]).

    [inject] threads a fault into the pipelined run (the sequential
    reference stays unfaulted — it is the specification); [cancel] is
    polled once per simulated cycle. *)

(** {1 Batched checking (compile once, check many programs)}

    BMC sweeps and workload sweeps check the {e same machine shape}
    over many programs: only the initial register-file contents (the
    program image) differ between points.  A {!shape} packages the
    transform together with both compiled machines — all immutable and
    shared across {!Exec.Pool} domains — and {!check_batched} replays
    them through per-domain cached sessions
    ({!Pipeline.Pipesem.local_session}), so each worker binds each
    plan exactly once for the whole sweep.  Results are bit-identical
    to {!check} on a freshly built machine of the same shape with the
    same initial values. *)

type shape
(** A transform plus its compiled pipelined and sequential machines,
    ready for batched checking.  Immutable; share freely. *)

val shape : Pipeline.Transform.t -> shape
(** Compile both machines once. *)

val shape_transform : shape -> Pipeline.Transform.t
val shape_compiled : shape -> Pipeline.Pipesem.compiled

val check_batched :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?reference:Machine.Seqsem.trace ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?init:(string * Machine.Value.t) list ->
  shape ->
  report
(** {!check} over a prebuilt shape: [init] entries override the
    spec's initial register values (the per-program image — see
    {!Machine.State.reset}) in {e both} the pipelined machine and the
    sequential reference.  [reference] supplies the specification
    trace explicitly, as in {!check}. *)

(** {1 Failures} *)

type failure = {
  failing_phase : string;  (** e.g. ["plan compilation"] *)
  message : string;
}

val failure_of_exn : exn -> failure
(** An exception the co-simulation raised — a mutated machine breaking
    plan compilation, a corrupted address escaping the state tables,
    ... — as a typed failure, for callers that must not let one broken
    mutant abort a batch.  Such callers let {!Exec.Cancel.Cancelled}
    through: a tripped cancellation token is the caller's signal, not
    a property of the machine under test. *)

val pp_report : Format.formatter -> report -> unit
(** One summary line — lemma 1 as ["ok"], ["skipped (rollbacks)"] or
    ["N violations"] with N the true total, however few messages were
    kept — then the first ten violations. *)

(** {1 Lane packs (up to 62 programs per co-simulation)}

    {!check_batched} for a pack: one {!Pipeline.Pipesem.run_pack} run
    of the pipelined machine, each lane checked by the same checker
    against its own sequential trace.  Lane [l]'s report is the report
    {!check_batched} returns for the same program and reference, its
    WORK counts those of that one-lane check. *)

type lane_verdict = {
  lv_ok : bool;  (** [ok lv_report] *)
  lv_stats : Pipeline.Pipesem.stats;  (** [lv_report.stats] *)
  lv_report : report;
}

val check_lanes :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?cancel:Exec.Cancel.token ->
  references:Machine.Seqsem.trace array ->
  inits:(string * Machine.Value.t) list array ->
  shape ->
  lane_verdict array
(** Check lane [l], initialized from [inits.(l)], against
    [references.(l)] over [references.(l).instructions] instructions
    (a sweep's golden traces).  A file lane still holding the very
    array its reference value is ([State.lane_cell.lc_srcs]) matches
    without a scan, as in the one-lane checker.  The pack runs on the
    calling domain's cached pack for the shape.  An exception aborts
    the whole pack. *)
