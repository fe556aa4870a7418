(** Liveness (paper §6.3): a finite upper bound exists such that a
    given instruction terminates.

    For an [n]-stage machine whose external stall sources are bounded
    (each [ext_k] episode lasts at most [e] cycles) and whose
    speculations cannot livelock, every instruction retires within a
    bound linear in [n], [e] and the number of in-flight rollbacks.
    The checker measures the largest gap between consecutive
    retirements (and from reset to the first retirement) of a run of
    the pipelined machine, and compares it against the bound.

    The bound B is defined once, {!Pipeline.Pipesem.liveness_bound},
    and the cycle driver enforces it: a run stops as
    [Out_of_cycles] at the end of the first cycle after which any
    later retirement would exceed B (gaps measured by
    {!Pipeline.Pipesem.retirement_gap}, as here).  So a run that
    completed is within the bound, and one that did not complete
    fails liveness whether it deadlocked or was stopped.

    The measurement is {!gaps}, fed from a run's observer
    ({!Pipeline.Pipesem.observer}) once per cycle and per
    retirement.  The data-consistency co-simulation feeds
    one too ({!Consistency.report}[.liveness]), so verification reads
    its liveness verdict off the run it already made; {!check} is the
    standalone run, for callers without a co-simulation. *)

type report = {
  checked : int;          (** retirements observed *)
  max_gap : int;          (** largest inter-retirement gap in cycles *)
  bound : int;
  outcome : Pipeline.Pipesem.outcome;
  idle : int;
      (** cycles the run simulated after its last retirement (after
          reset if nothing retired): what stopped a run that did not
          complete *)
}

val ok : report -> bool
(** The run completed, hence within the bound. *)

val default_bound : n_stages:int -> int
(** {!Pipeline.Pipesem.liveness_bound}: [8 * n_stages + 64]. *)

(** {1 Gap accounting} *)

type gaps
(** The retirement count and inter-retirement gaps of one run so far. *)

val gaps : unit -> gaps

val on_cycle : gaps -> cycle:int -> unit
(** Call once per cycle, before the cycle's retirements. *)

val on_retire : gaps -> unit
(** Call once per retirement. *)

val of_run : n_stages:int -> gaps -> Pipeline.Pipesem.lane_result -> report
(** The report of the finished run the gaps were fed from, against
    {!default_bound}. *)

(** {1 Standalone check} *)

val check :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?compiled:Pipeline.Pipesem.compiled ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  stop_after:int ->
  Pipeline.Transform.t ->
  report
(** Run the pipelined machine until [stop_after] instructions retire
    and account its gaps.
    [inject] runs the checker against a faulted machine; [cancel] is
    polled per cycle (see {!Pipeline.Pipesem.run_compiled}).  Given the
    same plan, [ext], [inject] and [stop_after], the report equals the
    [liveness] field of the co-simulation's {!Consistency.report}. *)

val evidence : report -> string
(** The liveness obligation's evidence: the largest gap against the
    bound for a completed run; for a run that did not complete, its
    outcome, the retirements seen and the cycles since the last
    retirement. *)

val pp_report : Format.formatter -> report -> unit
