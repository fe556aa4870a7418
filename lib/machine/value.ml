type t =
  | Scalar of Hw.Bitvec.t
  | File of Hw.Bitvec.t array

let scalar v = Scalar v
let zero_scalar ~width = Scalar (Hw.Bitvec.zero width)

let zero_file ~width ~addr_bits =
  File (Array.make (1 lsl addr_bits) (Hw.Bitvec.zero width))

let file_of_list ~width ~addr_bits entries =
  let n = 1 lsl addr_bits in
  if List.length entries > n then
    invalid_arg "Value.file_of_list: too many entries";
  List.iter
    (fun e ->
      if Hw.Bitvec.width e <> width then
        invalid_arg "Value.file_of_list: width mismatch")
    entries;
  let arr = Array.make n (Hw.Bitvec.zero width) in
  List.iteri (fun i e -> arr.(i) <- e) entries;
  File arr

let copy = function
  | Scalar _ as v -> v
  | File arr -> File (Array.copy arr)

(* The per-entry physical shortcut matters: batched runs seed both
   machines from one shared image ([copy] preserves entry sharing), so
   comparing two register files mostly compares identical pointers. *)
let equal a b =
  a == b
  ||
  match (a, b) with
  | Scalar x, Scalar y -> Hw.Bitvec.equal x y
  | File x, File y ->
    x == y
    || Array.length x = Array.length y
       && (let n = Array.length x in
           (* [unsafe_get]: i < n = length x = length y.  This scan is
              the inner loop of every visible-state comparison. *)
           let rec go i =
             i >= n
             || (let a = Array.unsafe_get x i and b = Array.unsafe_get y i in
                 (a == b || Hw.Bitvec.equal a b) && go (i + 1))
           in
           go 0)
  | Scalar _, File _ | File _, Scalar _ -> false

let read_scalar = function
  | Scalar v -> v
  | File _ -> invalid_arg "Value.read_scalar: register file"

let read_entry t addr =
  match t with
  | Scalar _ -> invalid_arg "Value.read_file: scalar"
  | File arr -> arr.(addr land (Array.length arr - 1))

let write_entry t addr data =
  match t with
  | Scalar _ -> invalid_arg "Value.write_file: scalar"
  | File arr -> arr.(addr land (Array.length arr - 1)) <- data

let read_file t addr = read_entry t (Hw.Bitvec.to_int addr)
let write_file t addr data = write_entry t (Hw.Bitvec.to_int addr) data

let pp ppf = function
  | Scalar v -> Hw.Bitvec.pp ppf v
  | File arr ->
    Format.fprintf ppf "[|";
    Array.iteri
      (fun i v ->
        if i > 0 then Format.fprintf ppf "; ";
        Hw.Bitvec.pp ppf v)
      arr;
    Format.fprintf ppf "|]"
