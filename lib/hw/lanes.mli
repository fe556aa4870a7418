(** Lane bookkeeping for bit-parallel batched evaluation.

    A pack of up to {!max_lanes} independent co-simulations rides in
    the bit-lanes of a native [int]: bit [l] of a packed word is the
    value of a width-1 signal in lane [l].  Larger batches are split
    into consecutive {!max_lanes}-sized chunks by the callers.

    Invariant: bits [0 .. active-1] of a packed word are meaningful
    and higher bits are unspecified — consumers mask with
    {!mask_of_count}, producers may leave garbage above the active
    count. *)

val max_lanes : int
(** 62: the widest lane pack a native 63-bit int can carry (matching
    {!Bitvec.max_width}). *)

val mask_of_count : int -> int
(** [mask_of_count n] is all-ones over the low [n] bits (non-negative;
    [mask_of_count max_lanes = max_int]).  Raises [Invalid_argument]
    outside [0 .. max_lanes]. *)

val test : int -> int -> bool
(** [test w l] is bit [l] of [w]. *)

val clear : int -> int -> int
(** [clear w l] is [w] with bit [l] cleared. *)

val popcount : int -> int
(** Number of set bits. *)
