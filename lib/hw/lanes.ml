(* Lane bookkeeping for bit-parallel batched evaluation.

   A pack of up to [max_lanes] independent co-simulations is carried
   in the bit-lanes of a native int: bit [l] of a packed word is the
   value of a width-1 signal in lane [l].  OCaml ints are 63-bit, and
   [Bitvec] already reserves 62 bits for the widest scalar value, so a
   word holds 62 lanes; callers pack larger batches into consecutive
   62-lane chunks.

   The invariant throughout the lane engine: bits [0 .. active-1] of a
   packed word are meaningful, higher bits are unspecified garbage.
   Every consumer masks with [mask_of_count active] (or only ever
   reads bits below [active]); producers are free to leave junk in the
   high bits. *)

let max_lanes = 62

(* All-ones over the low [n] bits, as a non-negative int (except for
   the full 62-lane mask, which still fits a native int since
   [2^62 - 1 = max_int]). *)
let mask_of_count n =
  if n < 0 || n > max_lanes then
    invalid_arg (Printf.sprintf "Lanes.mask_of_count: %d" n);
  if n = max_lanes then max_int else (1 lsl n) - 1

let test w l = (w lsr l) land 1 <> 0
let clear w l = w land lnot (1 lsl l)

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
  go 0 w
