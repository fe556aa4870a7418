module B = Hw.Bdd
module E = Hw.Expr
module V = Hw.Bitvec

type t = {
  id : int;
  width : int;
  node : node;
  mutable bits : B.t array;  (* the blast, [||] until first needed *)
}

and node =
  | Const of V.t
  | Var  (* [bits] is set at creation *)
  | Unop of E.unop * t
  | Binop of E.binop * t * t
  | Mux of t * t * t
  | Concat of t * t
  | Slice of t * int * int
  | Zext of t * int
  | Sext of t * int
  | Read of t array * t  (* a file's entries (never mutated), address *)

(* Operands are hash-consed, so a node is keyed by its operator and
   its operands' identities.  Variables are never looked up. *)
module Node = struct
  type nonrec t = node

  let equal a b =
    match (a, b) with
    | Const x, Const y -> V.equal x y
    | Unop (o, x), Unop (o', x') -> o = o' && x == x'
    | Binop (o, x, y), Binop (o', x', y') -> o = o' && x == x' && y == y'
    | Mux (s, x, y), Mux (s', x', y') -> s == s' && x == x' && y == y'
    | Concat (x, y), Concat (x', y') -> x == x' && y == y'
    | Slice (x, h, l), Slice (x', h', l') -> x == x' && h = h' && l = l'
    | Zext (x, w), Zext (x', w') | Sext (x, w), Sext (x', w') ->
      x == x' && w = w'
    | Read (es, x), Read (es', x') ->
      x == x'
      && (es == es'
         || Array.length es = Array.length es' && Array.for_all2 ( == ) es es')
    | ( ( Const _ | Var | Unop _ | Binop _ | Mux _ | Concat _ | Slice _
        | Zext _ | Sext _ | Read _ ),
        _ ) ->
      false

  let mix a b = (a * 65599) + b

  let hash = function
    | Const v -> mix (V.width v) (V.to_int v)
    | Var -> 0
    | Unop (o, x) -> mix (mix 1 (Hashtbl.hash o)) x.id
    | Binop (o, x, y) -> mix (mix (mix 2 (Hashtbl.hash o)) x.id) y.id
    | Mux (s, x, y) -> mix (mix (mix 3 s.id) x.id) y.id
    | Concat (x, y) -> mix (mix 4 x.id) y.id
    | Slice (x, h, l) -> mix (mix (mix 5 x.id) h) l
    | Zext (x, w) -> mix (mix 6 x.id) w
    | Sext (x, w) -> mix (mix 7 x.id) w
    | Read (_, x) -> mix 8 x.id
end

module Tbl = Hashtbl.Make (Node)

type table = { man : B.man; nodes : t Tbl.t; mutable next_id : int }

let table man = { man; nodes = Tbl.create 256; next_id = 0 }

let make tb ~width node bits =
  let t = { id = tb.next_id; width; node; bits } in
  tb.next_id <- tb.next_id + 1;
  t

let intern tb ~width node =
  match Tbl.find_opt tb.nodes node with
  | Some t -> t
  | None ->
    let t = make tb ~width node [||] in
    Tbl.add tb.nodes node t;
    t

let const tb v = intern tb ~width:(V.width v) (Const v)
let var tb bits = make tb ~width:(Array.length bits) Var bits
let width t = t.width
let value t = match t.node with Const v -> Some v | _ -> None
let ill fmt = Printf.ksprintf (fun s -> raise (E.Ill_typed s)) fmt

let same_width what a b =
  if a.width <> b.width then
    ill "%s operand widths %d vs %d" what a.width b.width

let unop tb op a =
  match a.node with
  | Const v -> const tb (Hw.Eval.eval_unop op v)
  | _ ->
    let width =
      match op with E.Not | E.Neg -> a.width | E.Reduce_or | E.Reduce_and -> 1
    in
    intern tb ~width (Unop (op, a))

let is_ones v = V.equal v (V.ones (V.width v))

let binop tb op a b =
  let width =
    match op with
    | E.Add | E.Sub | E.Mul | E.And | E.Or | E.Xor ->
      same_width "binop" a b;
      a.width
    | E.Eq | E.Ne | E.Ltu | E.Lts ->
      same_width "comparison" a b;
      1
    | E.Shl | E.Shr | E.Sra -> a.width
  in
  match (op, a.node, b.node) with
  | _, Const x, Const y -> const tb (Hw.Eval.eval_binop op x y)
  | E.And, Const z, _ when V.is_zero z -> a
  | E.And, _, Const z when V.is_zero z -> b
  | E.And, Const o, _ when is_ones o -> b
  | E.And, _, Const o when is_ones o -> a
  | E.Or, Const o, _ when is_ones o -> a
  | E.Or, _, Const o when is_ones o -> b
  | E.Or, Const z, _ when V.is_zero z -> b
  | E.Or, _, Const z when V.is_zero z -> a
  | _ -> intern tb ~width (Binop (op, a, b))

let mux tb s a b =
  if s.width <> 1 then ill "mux select width %d (want 1)" s.width;
  same_width "mux" a b;
  match s.node with
  | Const v -> if V.to_bool v then a else b
  | _ -> if a == b then a else intern tb ~width:a.width (Mux (s, a, b))

let concat tb hi lo =
  let width = hi.width + lo.width in
  if width > V.max_width then ill "concat result width %d too large" width;
  match (hi.node, lo.node) with
  | Const h, Const l -> const tb (V.concat h l)
  | _ -> intern tb ~width (Concat (hi, lo))

let slice tb a hi lo =
  if lo < 0 || hi < lo || hi >= a.width then
    ill "slice [%d:%d] of %d-bit expression" hi lo a.width;
  match a.node with
  | Const v -> const tb (V.slice v ~hi ~lo)
  | _ -> intern tb ~width:(hi - lo + 1) (Slice (a, hi, lo))

let extend tb ~signed a w =
  if w < a.width || w > V.max_width then
    ill "extend %d-bit to %d bits" a.width w;
  match a.node with
  | Const v -> const tb ((if signed then V.sign_extend else V.zero_extend) v w)
  | _ -> intern tb ~width:w (if signed then Sext (a, w) else Zext (a, w))

let selected c i = V.to_int c = i land ((1 lsl V.width c) - 1)

let read tb entries addr =
  match addr.node with
  | Const c ->
    let acc = ref entries.(0) in
    for i = 1 to Array.length entries - 1 do
      if selected c i then acc := entries.(i)
    done;
    !acc
  | _ -> intern tb ~width:entries.(0).width (Read (entries, addr))

let of_expr tb ~input ~file e =
  let rec go = function
    | E.Const v -> const tb v
    | E.Input (n, w) -> input n w
    | E.Unop (op, a) -> unop tb op (go a)
    | E.Binop (op, a, b) ->
      let x = go a in
      binop tb op x (go b)
    | E.Mux (s, a, b) ->
      let s = go s in
      let x = go a in
      mux tb s x (go b)
    | E.Concat (hi, lo) ->
      let h = go hi in
      concat tb h (go lo)
    | E.Slice (a, hi, lo) -> slice tb (go a) hi lo
    | E.Zext (a, w) -> extend tb ~signed:false (go a) w
    | E.Sext (a, w) -> extend tb ~signed:true (go a) w
    | E.File_read { file = f; data_width; addr } -> file f (go addr) data_width
  in
  go e

let rec blast tb t =
  if Array.length t.bits = 0 then begin
    let m = tb.man in
    t.bits <-
      (match t.node with
      | Const v -> Equiv.Blast.const v
      | Var -> assert false
      | Unop (op, a) -> Equiv.Blast.unop m op (blast tb a)
      | Binop (op, a, b) ->
        let x = blast tb a in
        Equiv.Blast.binop m op x (blast tb b)
      | Mux (s, a, b) ->
        let sel = (blast tb s).(0) in
        let x = blast tb a in
        Equiv.Blast.mux m sel x (blast tb b)
      | Concat (hi, lo) ->
        let h = blast tb hi in
        Equiv.Blast.concat ~hi:h ~lo:(blast tb lo)
      | Slice (a, hi, lo) -> Equiv.Blast.slice (blast tb a) ~hi ~lo
      | Zext (a, w) -> Equiv.Blast.zext (blast tb a) w
      | Sext (a, w) -> Equiv.Blast.sext (blast tb a) w
      | Read (entries, addr) ->
        (* The mux chain, leaving out the entries the address cannot
           select: their [ite] would return the chain unchanged. *)
        let av = blast tb addr in
        let acc = ref (blast tb entries.(0)) in
        for i = 1 to Array.length entries - 1 do
          let sel =
            (Equiv.Blast.binop m E.Eq av
               (Equiv.Blast.const (V.make ~width:addr.width i))).(0)
          in
          if not (B.is_fls sel) then
            acc := Equiv.Blast.mux m sel (blast tb entries.(i)) !acc
        done;
        !acc)
  end;
  t.bits
