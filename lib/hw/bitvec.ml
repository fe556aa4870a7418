type t = { w : int; v : int }

exception Width_mismatch of string

let max_width = 62

let mask w = if w = max_width then -1 lsr (63 - max_width) else (1 lsl w) - 1

(* Zeros are interned per width: register-file images pad with zeros,
   and sharing one object per width lets session resets and snapshot
   comparisons recognize untouched entries by pointer (it also spares
   the allocation). *)
let zeros = Array.init (max_width + 1) (fun w -> { w; v = 0 })

let make ~width v =
  if width < 1 || width > max_width then
    invalid_arg (Printf.sprintf "Bitvec.make: width %d not in 1..%d" width max_width);
  let v = v land mask width in
  if v = 0 then zeros.(width) else { w = width; v }

let zero width = make ~width 0
let one width = make ~width 1
let ones width = make ~width (mask width)
let width t = t.w
let to_int t = t.v

(* At [max_width], [t.v - 2^62] is still a 63-bit int. *)
let to_signed_int t =
  if t.v land (1 lsl (t.w - 1)) <> 0 then t.v - (1 lsl t.w) else t.v

let equal a b = a.w = b.w && a.v = b.v

let compare a b =
  let c = Int.compare a.w b.w in
  if c <> 0 then c else Int.compare a.v b.v

let is_zero t = t.v = 0

let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.bit: index out of range";
  t.v land (1 lsl i) <> 0

let check op a b =
  if a.w <> b.w then
    raise (Width_mismatch (Printf.sprintf "%s: %d vs %d bits" op a.w b.w))

let add a b = check "add" a b; make ~width:a.w (a.v + b.v)
let sub a b = check "sub" a b; make ~width:a.w (a.v - b.v)
let mul a b = check "mul" a b; make ~width:a.w (a.v * b.v)
let neg a = make ~width:a.w (- a.v)
let logand a b = check "and" a b; { a with v = a.v land b.v }
let logor a b = check "or" a b; { a with v = a.v lor b.v }
let logxor a b = check "xor" a b; { a with v = a.v lxor b.v }
let lognot a = { a with v = lnot a.v land mask a.w }

let shift_left a n =
  if n >= a.w then zero a.w else make ~width:a.w (a.v lsl n)

let shift_right_logical a n =
  if n >= a.w then zero a.w else { a with v = a.v lsr n }

let shift_right_arith a n =
  let s = to_signed_int a in
  let n = min n (a.w - 1) in
  make ~width:a.w (s asr n)

(* Interned like the zeros: the compiled simulators load a full and an
   ext bit per stage every cycle. *)
let one_bit = { w = 1; v = 1 }
let of_bool b = if b then one_bit else zeros.(1)
let to_bool t = t.v <> 0
let eq a b = check "eq" a b; of_bool (a.v = b.v)
let lt_unsigned a b = check "ltu" a b; of_bool (a.v < b.v)
let lt_signed a b = check "lts" a b; of_bool (to_signed_int a < to_signed_int b)

let concat hi lo =
  let w = hi.w + lo.w in
  if w > max_width then invalid_arg "Bitvec.concat: result too wide";
  { w; v = (hi.v lsl lo.w) lor lo.v }

let slice t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= t.w then invalid_arg "Bitvec.slice: bad range";
  make ~width:(hi - lo + 1) (t.v lsr lo)

let zero_extend t w =
  if w < t.w then invalid_arg "Bitvec.zero_extend: narrower target";
  make ~width:w t.v

let sign_extend t w =
  if w < t.w then invalid_arg "Bitvec.sign_extend: narrower target";
  make ~width:w (to_signed_int t)

let truncate t w = make ~width:w t.v
let pp ppf t = Format.fprintf ppf "%d'd%d" t.w t.v
let to_string t = Format.asprintf "%a" pp t
let pp_hex ppf t = Format.fprintf ppf "%d'h%x" t.w t.v
