(** The scheduling function [I(k,T)] (paper §6.1) and Lemma 1.

    [I(k,T) = i] states that instruction [I_i] is in stage [k] during
    cycle [T].  The paper makes the function total by anticipating the
    next instruction while a stage is empty, and defines it inductively
    from the update-enable trace:

    {[ I(k,0) = 0
       I(k,T) = I(k,T-1)       if ¬ue_k^{T-1}
       I(0,T) = I(0,T-1) + 1   if  ue_0^{T-1}
       I(k,T) = I(k-1,T-1)     if  ue_k^{T-1}, k ≠ 0 ]}

    Lemma 1 properties (valid in the absence of rollback):

    + [I(k,·)] increases by exactly one on [ue_k], else is unchanged;
    + adjoining stages satisfy [I(k-1,T) - I(k,T) ∈ {0, 1}];
    + [full_k^T = 0  ⟺  I(k-1,T) = I(k,T)].

    The checker also cross-validates [I(k,T)] against the simulator's
    ground-truth instruction tags: whenever stage [k] is full in cycle
    [T], the tag equals [I(k,T)]. *)

type table = int array array
(** [table.(t).(k)] is [I(k, t)]; row 0 is all zeros. *)

val of_trace : n_stages:int -> Pipesem.cycle_record list -> table
(** Build [I] from the recorded [ue] signals (records must be in cycle
    order, starting at cycle 0).  The table has one more row than there
    are records. *)

val lemma1_step :
  Evidence.sink ->
  cycle:int ->
  lane:int ->
  row:int array ->
  Stall_engine.lane_signals ->
  tags:int array array ->
  unit
(** Check all three Lemma 1 properties plus the tag cross-validation
    on one cycle of lane [lane] of a run, as the cycle driver presents
    it to an observer ({!Pipesem.observer}[.ob_cycle]); [row] holds
    [I(k, cycle)] per stage and advances to [I(k, cycle + 1)].  Every
    violation is counted into the sink.  Start [row] at zeros in cycle
    0 and stop at the first rollback: the lemma is about rollback-free
    execution.  The consistency checker runs this once per cycle. *)

val check_lemma1 :
  n_stages:int -> Pipesem.cycle_record list -> (unit, Evidence.t) result
(** {!lemma1_step} over a recorded rollback-free trace.  Every cycle is
    checked and every violation counted; the messages are capped as
    {!Evidence} describes.  Traces containing rollbacks are rejected
    with one explanatory message (the paper's proofs "omit
    rollback"). *)

val has_rollback : Pipesem.cycle_record list -> bool
