module E = Hw.Expr
module B = Hw.Bdd

type counterexample = {
  cex_inputs : (string * int) list;
  cex_left : Hw.Bitvec.t;
  cex_right : Hw.Bitvec.t;
}

type result =
  | Equivalent of { variables : int; bdd_nodes : int }
  | Different of counterexample
  | Width_mismatch of int * int

(* ------------------------------------------------------------------ *)
(* One operator at a time, over its operands' vectors (LSB first)      *)
(* ------------------------------------------------------------------ *)

(* Ripple-carry addition with an initial carry. *)
let add_vec m ?(carry = B.fls) a b =
  let w = Array.length a in
  let out = Array.make w B.fls in
  let c = ref carry in
  for i = 0 to w - 1 do
    let axb = B.xor m a.(i) b.(i) in
    out.(i) <- B.xor m axb !c;
    c := B.disj m (B.conj m a.(i) b.(i)) (B.conj m axb !c)
  done;
  (out, !c)

let not_vec m a = Array.map (B.neg m) a

let const_vec v =
  Array.init (Hw.Bitvec.width v) (fun i ->
      if Hw.Bitvec.bit v i then B.tru else B.fls)

let mux_vec m s a b = Array.mapi (fun i ai -> B.ite m s ai b.(i)) a

(* Shift by a constant amount, saturating. *)
let shift_const dir a k =
  let w = Array.length a in
  let fill =
    match dir with `Left | `Right_logical -> B.fls | `Right_arith -> a.(w - 1)
  in
  Array.init w (fun i ->
      match dir with
      | `Left -> if i - k >= 0 then a.(i - k) else B.fls
      | `Right_logical | `Right_arith ->
        if i + k < w then a.(i + k) else fill)

let unop m op a =
  match op with
  | E.Not -> not_vec m a
  | E.Neg ->
    fst
      (add_vec m ~carry:B.tru (not_vec m a)
         (Array.make (Array.length a) B.fls))
  | E.Reduce_or -> [| Array.fold_left (B.disj m) B.fls a |]
  | E.Reduce_and -> [| Array.fold_left (B.conj m) B.tru a |]

let binop m op x y =
  let ltu a b =
    (* a < b iff no carry out of a + ~b + 1. *)
    let _, cout = add_vec m ~carry:B.tru a (not_vec m b) in
    B.neg m cout
  in
  match op with
  | E.And -> Array.map2 (B.conj m) x y
  | E.Or -> Array.map2 (B.disj m) x y
  | E.Xor -> Array.map2 (B.xor m) x y
  | E.Add -> fst (add_vec m x y)
  | E.Sub -> fst (add_vec m ~carry:B.tru x (not_vec m y))
  | E.Mul ->
    let w = Array.length x in
    let acc = ref (Array.make w B.fls) in
    for i = 0 to w - 1 do
      let addend =
        Array.init w (fun j ->
            if j - i >= 0 then B.conj m y.(i) x.(j - i) else B.fls)
      in
      acc := fst (add_vec m !acc addend)
    done;
    !acc
  | E.Eq -> [| Array.fold_left (B.conj m) B.tru (Array.map2 (B.xnor m) x y) |]
  | E.Ne ->
    [| B.neg m (Array.fold_left (B.conj m) B.tru (Array.map2 (B.xnor m) x y)) |]
  | E.Ltu -> [| ltu x y |]
  | E.Lts ->
    let w = Array.length x in
    let sa = x.(w - 1) and sb = y.(w - 1) in
    (* sa=1, sb=0 -> true; same sign -> unsigned compare. *)
    [|
      B.disj m
        (B.conj m sa (B.neg m sb))
        (B.conj m (B.xnor m sa sb) (ltu x y));
    |]
  | E.Shl | E.Shr | E.Sra ->
    let dir =
      match op with
      | E.Shl -> `Left
      | E.Shr -> `Right_logical
      | E.Sra | E.Add | E.Sub | E.Mul | E.And | E.Or | E.Xor | E.Eq | E.Ne
      | E.Ltu | E.Lts -> `Right_arith
    in
    let w = Array.length x in
    let cur = ref x in
    Array.iteri
      (fun j bit ->
        let k = if j >= 30 then w else min w (1 lsl j) in
        cur := mux_vec m bit (shift_const dir !cur k) !cur)
      y;
    !cur

let concat ~hi ~lo = Array.append lo hi
let slice a ~hi ~lo = Array.sub a lo (hi - lo + 1)
let zext a w =
  Array.init w (fun i -> if i < Array.length a then a.(i) else B.fls)

let sext a w =
  let top = a.(Array.length a - 1) in
  Array.init w (fun i -> if i < Array.length a then a.(i) else top)

(* ------------------------------------------------------------------ *)
(* Whole expressions                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  man : B.man;
  resolve_input : string -> int -> B.t array;
  resolve_file : string -> B.t array -> int -> B.t array;
}

(* Leaves resolve in a fixed order, and [new_ctx] numbers variables in
   first-use order, so this order fixes [check]'s variable numbering
   and node counts: the right operand first, except under [Mul], [Lts]
   and the shifts; a mux's select, then its else arm; a concat's high
   part. *)
let rec blast ctx e =
  let m = ctx.man in
  match e with
  | E.Const v -> const_vec v
  | E.Input (n, w) -> ctx.resolve_input n w
  | E.Unop (op, a) -> unop m op (blast ctx a)
  | E.Binop (((E.Mul | E.Lts | E.Shl | E.Shr | E.Sra) as op), a, b) ->
    let x = blast ctx a in
    binop m op x (blast ctx b)
  | E.Binop (op, a, b) ->
    let y = blast ctx b in
    binop m op (blast ctx a) y
  | E.Mux (s, a, b) ->
    let sv = (blast ctx s).(0) in
    let bv = blast ctx b in
    mux_vec m sv (blast ctx a) bv
  | E.Concat (hi, lo) ->
    let h = blast ctx hi in
    concat ~hi:h ~lo:(blast ctx lo)
  | E.Slice (a, hi, lo) -> slice (blast ctx a) ~hi ~lo
  | E.Zext (a, w) -> zext (blast ctx a) w
  | E.Sext (a, w) -> sext (blast ctx a) w
  | E.File_read { file; data_width; addr } ->
    ctx.resolve_file file (blast ctx addr) data_width

(* The default leaf resolvers: each named input gets fresh variables,
   each distinct (file, address-vector) read gets a fresh vector. *)
type free_ctx = {
  fctx : ctx;
  mutable next_var : int;
  inputs : (string, int * int) Hashtbl.t;
  file_reads : (string * B.t list, B.t array) Hashtbl.t;
}

let new_ctx () =
  let man = B.manager () in
  let rec fc =
    lazy
      {
        fctx =
          {
            man;
            resolve_input =
              (fun name width ->
                let c = Lazy.force fc in
                match Hashtbl.find_opt c.inputs name with
                | Some (base, w) ->
                  if w <> width then
                    failwith
                      (Printf.sprintf
                         "Equiv: input %s used at widths %d and %d" name w
                         width)
                  else Array.init width (fun i -> B.var man (base + i))
                | None ->
                  let base = c.next_var in
                  c.next_var <- base + width;
                  Hashtbl.replace c.inputs name (base, width);
                  Array.init width (fun i -> B.var man (base + i)));
            resolve_file =
              (fun file av data_width ->
                let c = Lazy.force fc in
                let key = (file, Array.to_list av) in
                match Hashtbl.find_opt c.file_reads key with
                | Some v -> v
                | None ->
                  let base = c.next_var in
                  c.next_var <- base + data_width;
                  let v =
                    Array.init data_width (fun i -> B.var man (base + i))
                  in
                  Hashtbl.replace c.file_reads key v;
                  v);
          };
        next_var = 0;
        inputs = Hashtbl.create 16;
        file_reads = Hashtbl.create 16;
      }
  in
  Lazy.force fc

let value_of_assignment man assign vec =
  let w = Array.length vec in
  Hw.Bitvec.make ~width:w
    (Array.to_list vec
    |> List.mapi (fun i b -> if B.eval man b assign then 1 lsl i else 0)
    |> List.fold_left ( lor ) 0)

let check left right =
  Obs.Span.with_span "verify.equiv" @@ fun () ->
  let wl = E.width left and wr = E.width right in
  if wl <> wr then Width_mismatch (wl, wr)
  else
    let c = new_ctx () in
    let ctx = c.fctx in
    let lv = blast ctx left and rv = blast ctx right in
    (* The miter one bit at a time, stopping at the first bit that can
       differ.  The OR of every bit's difference can need a BDD
       exponential in the width under [new_ctx]'s variable order (a mux
       with swapped selects compares two candidates bit by bit), while
       each bit's own difference stays small.  An equal bit's [xor] is
       false, and ORing falses builds nothing, so a proof builds the
       same nodes as one OR would. *)
    let rec first_diff i =
      if i = Array.length lv then None
      else
        let d = B.xor ctx.man lv.(i) rv.(i) in
        if B.is_fls d then first_diff (i + 1) else Some d
    in
    match first_diff 0 with
    | None ->
      Equivalent
        { variables = c.next_var; bdd_nodes = B.node_count ctx.man }
    | Some diff ->
      let sat = Option.get (B.any_sat ctx.man diff) in
      let assign v = List.assoc_opt v sat = Some true in
      let cex_inputs =
        Hashtbl.fold
          (fun name (base, w) acc ->
            let value =
              List.init w (fun i -> if assign (base + i) then 1 lsl i else 0)
              |> List.fold_left ( lor ) 0
            in
            (name, value) :: acc)
          c.inputs []
        |> List.sort compare
      in
      Different
        {
          cex_inputs;
          cex_left = value_of_assignment ctx.man assign lv;
          cex_right = value_of_assignment ctx.man assign rv;
        }

let tautology e =
  if E.width e <> 1 then invalid_arg "Equiv.tautology: not 1-bit";
  let c = new_ctx () in
  B.is_tru (blast c.fctx e).(0)

module Blast = struct
  let const = const_vec
  let unop = unop
  let binop = binop
  let mux = mux_vec
  let concat = concat
  let slice = slice
  let zext = zext
  let sext = sext
end

let pp_result ppf = function
  | Equivalent { variables; bdd_nodes } ->
    Format.fprintf ppf "equivalent (%d variables, %d BDD nodes)" variables
      bdd_nodes
  | Width_mismatch (a, b) -> Format.fprintf ppf "width mismatch: %d vs %d" a b
  | Different c ->
    Format.fprintf ppf "DIFFER at {%s}: left %a, right %a"
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) c.cex_inputs))
      Hw.Bitvec.pp c.cex_left Hw.Bitvec.pp c.cex_right

let check_exn left right =
  match check left right with
  | Equivalent _ -> ()
  | other -> failwith (Format.asprintf "%a" pp_result other)
