(** The stall engine (paper §3).

    Pure per-cycle signal computation:

    - [full_0 = 1], [full_k = fullb.k] for [k ≥ 1];
    - [stall_k = (dhaz_k ∨ ext_k ∨ stall_{k+1}) ∧ full_k] (the last
      stage has no [stall_{k+1}] term);
    - [rollback'_k = ⋁_{i ≥ k} rollback_i];
    - [ue_k = full_k ∧ ¬stall_k ∧ ¬rollback'_k];
    - [fullb.s := (ue_{s-1} ∨ stall_s) ∧ ¬rollback'_s] for
      [s ∈ 1..n-1].

    The rollback conjunct in the [fullb] update extends the stall
    engine of the paper's reference [12] with the squashing mechanism:
    a squashed stage empties even if it was stalled.  The misspeculation
    comparison itself fires only in a full, unstalled stage, so
    [rollback_k ⟹ full_k ∧ ¬stall_k] is an invariant the simulator
    asserts. *)

type signals = {
  full : bool array;
  stall : bool array;
  rollback : bool array;       (** [rollback_k], per stage *)
  rollback_up : bool array;    (** [rollback'_k], the suffix OR *)
  ue : bool array;
}

val compute :
  fullb:bool array ->
  dhaz:bool array ->
  ext:bool array ->
  mispredict:(stage:int -> stalled:bool -> bool) ->
  signals
(** [fullb.(0)] is ignored (stage 0 is always full).  [mispredict] is
    queried once per stage after stalls are known; it must return
    [false] when the stage is not full or [stalled] (the engine also
    guards this). *)

val next_fullb : signals -> bool array
(** The register update: [fullb'.(s) = (ue.(s-1) ∨ stall.(s)) ∧
    ¬rollback'.(s)]; index 0 is [true]. *)

(** {1 Lane-parallel form}

    The same equations over packed lane words (bit [l] = lane [l]):
    one word op per stage advances every lane in the pack.  This is
    the form the cycle driver ({!Pipesem}) runs; a one-lane run's words
    are [0] or [1]. *)

type lane_signals = {
  l_full : int array;
  l_stall : int array;
  l_rollback : int array;
  l_rollback_up : int array;
  l_ue : int array;
}

val lane_signals : n_stages:int -> lane_signals
(** An all-zero record to compute into. *)

val compute_lanes :
  lane_signals ->
  mask:int ->
  fullb:int array ->
  dhaz:int array ->
  ext:int array ->
  mispredict:int array ->
  unit
(** Overwrite the record with this cycle's signals.  [mask] selects the
    live lanes; all outputs are masked.  [mispredict.(k)] is the raw
    misprediction word of stage [k] (OR of the stage's speculation
    comparators) — the scalar form's [not stalled] guard is applied
    here via [∧ ¬stall]. *)

val next_fullb_lanes : mask:int -> lane_signals -> int array -> unit
(** The lane mirror of {!next_fullb}, written into the given full-bit
    register words; index 0 becomes [mask]. *)

val exprs :
  n_stages:int ->
  dhaz:(int -> Hw.Expr.t) ->
  mispredict:(int -> Hw.Expr.t) ->
  (string * Hw.Expr.t) list
(** The same equations as combinational definitions over the
    ["$full_k"] / ["$ext_k"] inputs, for HDL export: yields
    ["$stall_k"], ["$rollback_k"], ["$rollbackp_k"], ["$ue_k"] and
    ["$fullb_next_k"] in dependency order. *)
