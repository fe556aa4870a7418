type t = { w : int; v : int }

exception Width_mismatch of string

let max_width = 62

let mask w = if w = max_width then -1 lsr (63 - max_width) else (1 lsl w) - 1

(* Zeros are interned per width: register-file images pad with zeros,
   and sharing one object per width lets lane resets recognize zero
   entries by pointer (it also spares the allocation).  Written out as
   literals so the records are static data, outside the heap: a module
   initialiser that fills a large array with a zero (a 4096-word
   memory image) would otherwise force a minor collection to promote
   it first. *)
let zeros =
  [|
    { w = 0; v = 0 }; { w = 1; v = 0 }; { w = 2; v = 0 }; { w = 3; v = 0 };
    { w = 4; v = 0 }; { w = 5; v = 0 }; { w = 6; v = 0 }; { w = 7; v = 0 };
    { w = 8; v = 0 }; { w = 9; v = 0 }; { w = 10; v = 0 }; { w = 11; v = 0 };
    { w = 12; v = 0 }; { w = 13; v = 0 }; { w = 14; v = 0 };
    { w = 15; v = 0 }; { w = 16; v = 0 }; { w = 17; v = 0 };
    { w = 18; v = 0 }; { w = 19; v = 0 }; { w = 20; v = 0 };
    { w = 21; v = 0 }; { w = 22; v = 0 }; { w = 23; v = 0 };
    { w = 24; v = 0 }; { w = 25; v = 0 }; { w = 26; v = 0 };
    { w = 27; v = 0 }; { w = 28; v = 0 }; { w = 29; v = 0 };
    { w = 30; v = 0 }; { w = 31; v = 0 }; { w = 32; v = 0 };
    { w = 33; v = 0 }; { w = 34; v = 0 }; { w = 35; v = 0 };
    { w = 36; v = 0 }; { w = 37; v = 0 }; { w = 38; v = 0 };
    { w = 39; v = 0 }; { w = 40; v = 0 }; { w = 41; v = 0 };
    { w = 42; v = 0 }; { w = 43; v = 0 }; { w = 44; v = 0 };
    { w = 45; v = 0 }; { w = 46; v = 0 }; { w = 47; v = 0 };
    { w = 48; v = 0 }; { w = 49; v = 0 }; { w = 50; v = 0 };
    { w = 51; v = 0 }; { w = 52; v = 0 }; { w = 53; v = 0 };
    { w = 54; v = 0 }; { w = 55; v = 0 }; { w = 56; v = 0 };
    { w = 57; v = 0 }; { w = 58; v = 0 }; { w = 59; v = 0 };
    { w = 60; v = 0 }; { w = 61; v = 0 }; { w = 62; v = 0 };
  |]

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
