(* Nodes are indices into growable arrays; 0 = false, 1 = true.

   Both tables are lossless open-addressing hash tables over flat int
   arrays, probed linearly and doubled once three quarters full, so a
   lookup allocates nothing and hashes no boxed key.  Slot value 0
   marks an empty slot: neither table ever stores a terminal (the
   unique table holds nodes >= 2, and [ite] memoizes only non-terminal
   conditions). *)

type t = int

type man = {
  mutable var_of : int array;   (* node -> variable *)
  mutable lo_of : int array;    (* node -> low child (var = 0 branch) *)
  mutable hi_of : int array;
  mutable size : int;
  mutable unique : int array;
      (* (var, lo, hi) -> node: each slot holds a node id, whose key
         the node arrays already store *)
  mutable unique_used : int;
  mutable memo : int array;
      (* ite memo, 4 ints per entry: f, g, h, then the result *)
  mutable memo_used : int;
}

let fls : t = 0
let tru : t = 1

let manager () =
  let cap = 1024 in
  let m =
    {
      var_of = Array.make cap max_int;
      lo_of = Array.make cap 0;
      hi_of = Array.make cap 0;
      size = 2;
      unique = Array.make 1024 0;
      unique_used = 0;
      memo = Array.make (4 * 1024) 0;
      memo_used = 0;
    }
  in
  (* Terminals carry an infinite variable so they sort last. *)
  m.var_of.(0) <- max_int;
  m.var_of.(1) <- max_int;
  m

(* Multiplicative (Fibonacci) hashing of three ints, read from the
   well-mixed upper bits; [mask] keeps the slot index in range
   (capacities are powers of two). *)
let hash3 a b c mask =
  let k = 0x9E3779B97F4A7C1 in
  ((((((a * k) + b) * k) + c) * k) lsr 29) land mask

let grow m =
  let cap = Array.length m.var_of in
  if m.size >= cap then begin
    let ncap = cap * 2 in
    let extend a d =
      let b = Array.make ncap d in
      Array.blit a 0 b 0 cap;
      b
    in
    m.var_of <- extend m.var_of max_int;
    m.lo_of <- extend m.lo_of 0;
    m.hi_of <- extend m.hi_of 0
  end

(* The unique-table slot holding the node [(v, lo, hi)], or the empty
   slot where it belongs. *)
let rec unique_slot m v lo hi i =
  let n = m.unique.(i) in
  if n = 0 || (m.var_of.(n) = v && m.lo_of.(n) = lo && m.hi_of.(n) = hi) then i
  else unique_slot m v lo hi ((i + 1) land (Array.length m.unique - 1))

let unique_find m v lo hi =
  unique_slot m v lo hi (hash3 v lo hi (Array.length m.unique - 1))

let grow_unique m =
  let old = m.unique in
  m.unique <- Array.make (2 * Array.length old) 0;
  Array.iter
    (fun n ->
      if n <> 0 then
        m.unique.(unique_find m m.var_of.(n) m.lo_of.(n) m.hi_of.(n)) <- n)
    old

let mk m v lo hi =
  if lo = hi then lo
  else
    let i = unique_find m v lo hi in
    let found = m.unique.(i) in
    if found <> 0 then found
    else begin
      grow m;
      let n = m.size in
      m.size <- n + 1;
      m.var_of.(n) <- v;
      m.lo_of.(n) <- lo;
      m.hi_of.(n) <- hi;
      m.unique.(i) <- n;
      m.unique_used <- m.unique_used + 1;
      if 4 * m.unique_used > 3 * Array.length m.unique then grow_unique m;
      n
    end

let var m v = mk m v fls tru
let nvar m v = mk m v tru fls

(* The memo entry index (a multiple of 4) holding key [(f, g, h)], or
   the empty entry where it belongs. *)
let rec memo_slot memo f g h i =
  let k = memo.(i) in
  if k = 0 || (k = f && memo.(i + 1) = g && memo.(i + 2) = h) then i
  else memo_slot memo f g h ((i + 4) land (Array.length memo - 1))

let memo_find memo f g h =
  memo_slot memo f g h (4 * hash3 f g h ((Array.length memo / 4) - 1))

let grow_memo m =
  let old = m.memo in
  m.memo <- Array.make (2 * Array.length old) 0;
  let rec rehash j =
    if j < Array.length old then begin
      if old.(j) <> 0 then
        Array.blit old j m.memo
          (memo_find m.memo old.(j) old.(j + 1) old.(j + 2))
          4;
      rehash (j + 4)
    end
  in
  rehash 0

let memo_add m f g h r =
  let memo = m.memo in
  let i = memo_find memo f g h in
  memo.(i) <- f;
  memo.(i + 1) <- g;
  memo.(i + 2) <- h;
  memo.(i + 3) <- r;
  m.memo_used <- m.memo_used + 1;
  if 4 * m.memo_used > 3 * (Array.length memo / 4) then grow_memo m

(* [Stdlib.min] would compare polymorphically. *)
let imin (a : int) b = if a <= b then a else b

(* The cofactor of [node] for variable [v] set to [side]. *)
let branch m v node side =
  if m.var_of.(node) = v then
    if side then m.hi_of.(node) else m.lo_of.(node)
  else node

let rec ite m f g h =
  if f = tru then g
  else if f = fls then h
  else if g = h then g
  else if g = tru && h = fls then f
  else
    let memo = m.memo in
    let i = memo_find memo f g h in
    if memo.(i) <> 0 then memo.(i + 3)
    else
      let v = imin m.var_of.(f) (imin m.var_of.(g) m.var_of.(h)) in
      let hi =
        ite m (branch m v f true) (branch m v g true) (branch m v h true)
      in
      let lo =
        ite m (branch m v f false) (branch m v g false) (branch m v h false)
      in
      let r = mk m v lo hi in
      (* The recursion may have grown the memo: look the slot up anew. *)
      memo_add m f g h r;
      r

let neg m f = ite m f fls tru
let conj m a b = ite m a b fls
let disj m a b = ite m a tru b
let xor m a b = ite m a (neg m b) b
let xnor m a b = ite m a b (neg m b)

let equal (a : t) (b : t) = a = b
let is_tru t = t = tru
let is_fls t = t = fls
let node_count m = m.size

let any_sat m f =
  if f = fls then None
  else
    let rec walk f acc =
      if f = tru then acc
      else if m.hi_of.(f) <> fls then
        walk m.hi_of.(f) ((m.var_of.(f), true) :: acc)
      else walk m.lo_of.(f) ((m.var_of.(f), false) :: acc)
    in
    Some (List.rev (walk f []))

let rec eval m f assign =
  if f = tru then true
  else if f = fls then false
  else if assign m.var_of.(f) then eval m m.hi_of.(f) assign
  else eval m m.lo_of.(f) assign
