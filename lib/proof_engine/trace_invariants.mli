(** Stall-engine invariants (paper §3), re-checked on recorded traces.

    Independently of the simulator's own computation, these re-derive
    the paper's equations from the recorded per-cycle signals:

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

val check :
  n_stages:int ->
  Pipeline.Pipesem.cycle_record list ->
  (unit, Pipeline.Evidence.t) result
(** Every cycle is checked and every violation counted; the messages
    are capped as {!Pipeline.Evidence} describes. *)

val check_exn : n_stages:int -> Pipeline.Pipesem.cycle_record list -> unit
(** @raise Failure with the (capped) violation messages. *)
