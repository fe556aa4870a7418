(** Stall-engine invariants (paper §3), re-checked on a run's control
    words.

    Independently of the simulator's own computation, these re-derive
    the paper's equations from the per-cycle signals:

    - [ue_k ⟹ full_k ∧ ¬stall_k];
    - [stall_{k+1} ∧ full_k ⟹ stall_k] (stall propagation);
    - [rollback_k ⟹ full_k ∧ ¬stall_k] (the misspeculation comparison
      fires only with valid operands);
    - [full_0 = 1];
    - across cycles: [full_s^{T+1} = (ue_{s-1}^T ∨ stall_s^T) ∧
      ¬rollback'^T_s] — in particular bubbles are removed when
      possible;
    - a stalled stage keeps its instruction: tags are stable under
      [stall] and shift under [ue]. *)

val step :
  Pipeline.Evidence.sink ->
  n_stages:int ->
  cycle:int ->
  lane:int ->
  prev:Pipeline.Stall_engine.lane_signals ->
  prev_tags:int array array ->
  cross:bool ->
  Pipeline.Stall_engine.lane_signals ->
  tags:int array array ->
  unit
(** Check cycle [cycle] of lane [lane] as the cycle driver presents it
    to an observer ({!Pipeline.Pipesem.observer}[.ob_cycle]): first,
    when [cross], the cross-cycle equations from the previous cycle's
    signals and tags ([prev], [prev_tags]; ignored otherwise — pass
    [false] in cycle 0), then the cycle's own.  Every violation is
    counted into the sink; the consistency checker runs this once per
    cycle. *)

val check :
  n_stages:int ->
  Pipeline.Pipesem.cycle_record list ->
  (unit, Pipeline.Evidence.t) result
(** {!step} over a recorded trace.  Every cycle is checked and every
    violation counted; the messages are capped as
    {!Pipeline.Evidence} describes. *)

val check_exn : n_stages:int -> Pipeline.Pipesem.cycle_record list -> unit
(** @raise Failure with the (capped) violation messages. *)
