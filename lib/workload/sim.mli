(** Unified simulation driver.

    A {!t} bundles a transformed machine with its compiled evaluation
    plan ({!Pipeline.Pipesem.compile}, built lazily and shared by
    every entry point) and, optionally, the sequential reference trace
    and the nominal instruction count of the loaded workload.  The
    run / trace / attribute / verify entry points used by {!Sweep},
    the benchmark harness and the [pipegen] CLI all dispatch through
    it, so a machine is compiled once per selection no matter how many
    views of it are requested.

    Thread safety: the plan is held in a [Lazy.t], and OCaml lazy
    suspensions are {e not} domain-safe — two domains racing the first
    force is undefined behaviour.  Either force it on one domain
    before sharing ({!compiled} — the resulting
    {!Pipeline.Pipesem.compiled} is immutable and freely shareable) or,
    as {!Sweep} does, build one [t] per {!Exec.Pool} task and never
    share it. *)

type t

val make :
  ?compiled:Pipeline.Pipesem.compiled ->
  ?reference:Machine.Seqsem.trace ->
  ?instructions:int ->
  Pipeline.Transform.t ->
  t
(** [instructions] is the workload's dynamic instruction count — the
    default [stop_after] of every entry point (default: 200, matching
    {!Proof_engine.Consistency.check}).  [reference] is the
    specification trace for verification; when absent, {!verify} runs
    the prepared sequential machine itself.  [compiled], when given,
    skips compilation and reuses an existing plan — it must carry this
    very transform (e.g. a same-shape plan passed through
    {!Pipeline.Pipesem.rebind}); the service layer uses this to share
    one plan across requests that differ only in program image. *)

val transform : t -> Pipeline.Transform.t
val instructions : t -> int

val compiled : t -> Pipeline.Pipesem.compiled
(** The machine's evaluation plan; compiled on first use, then shared. *)

val run :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?callbacks:Pipeline.Pipesem.callbacks ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?stop_after:int ->
  t ->
  Pipeline.Pipesem.result
(** Cycle-accurate simulation through the compiled plan.  [inject]
    and [cancel] as in {!Pipeline.Pipesem.run_compiled}. *)

val run_interpreted :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?callbacks:Pipeline.Pipesem.callbacks ->
  ?stop_after:int ->
  t ->
  Pipeline.Pipesem.result
(** The interpreted oracle ({!Pipeline.Pipesem.run_reference}): the
    same cycle driver evaluating expression trees directly.  Used for
    differential testing and as the benchmark baseline. *)

val attribute :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?stop_after:int ->
  t ->
  Pipeline.Pipesem.result * Obs.Hazard.summary
(** Simulation with hazard attribution ({!Pipeline.Attribution}). *)

val trace_vcd :
  path:string ->
  ?ext:Pipeline.Pipesem.ext_model ->
  ?registers:string list ->
  ?signals:string list ->
  ?stop_after:int ->
  t ->
  Pipeline.Pipesem.result
(** Simulation with waveform capture ({!Pipeline.Tracer.write}). *)

val reference : t -> Machine.Seqsem.trace option
(** The stored specification trace, if one was given to {!make}. *)

val verify :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  t ->
  Proof_engine.Consistency.report
(** Data-consistency co-simulation against the stored reference trace
    (or the prepared sequential machine when none was given).
    [max_instructions] defaults to {!instructions}.  [inject] checks
    a faulted machine against the unfaulted reference; [cancel]
    aborts by raising {!Exec.Cancel.Cancelled}. *)

val stats_row : ?label:string -> t -> Pipeline.Pipesem.stats -> Stats.row
(** Summarize into a workload table row; the sequential-machine stage
    count comes from the base machine. *)
