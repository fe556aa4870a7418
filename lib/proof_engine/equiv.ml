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

type ctx = {
  man : B.man;
  resolve_input : string -> int -> B.t array;
  resolve_file : string -> B.t array -> int -> B.t array;
}

let input_vector ctx name width = ctx.resolve_input name width

(* Ripple-carry addition with an initial carry. *)
let add_vec ctx ?(carry = B.fls) a b =
  let m = ctx.man in
  let w = Array.length a in
  let out = Array.make w B.fls in
  let c = ref carry in
  for i = 0 to w - 1 do
    let axb = B.xor m a.(i) b.(i) in
    out.(i) <- B.xor m axb !c;
    c := B.disj m (B.conj m a.(i) b.(i)) (B.conj m axb !c)
  done;
  (out, !c)

let not_vec ctx a = Array.map (B.neg ctx.man) a

let const_vec v =
  Array.init (Hw.Bitvec.width v) (fun i ->
      if Hw.Bitvec.bit v i then B.tru else B.fls)

let mux_vec ctx s a b = Array.mapi (fun i ai -> B.ite ctx.man s ai b.(i)) a

(* Shift by a constant amount, saturating. *)
let shift_const ctx dir a k =
  let w = Array.length a in
  let fill =
    match dir with `Left | `Right_logical -> B.fls | `Right_arith -> a.(w - 1)
  in
  ignore ctx;
  Array.init w (fun i ->
      match dir with
      | `Left -> if i - k >= 0 then a.(i - k) else B.fls
      | `Right_logical | `Right_arith ->
        if i + k < w then a.(i + k) else fill)

let rec blast ctx e =
  let m = ctx.man in
  match e with
  | E.Const v -> const_vec v
  | E.Input (n, w) -> input_vector ctx n w
  | E.Unop (E.Not, a) -> not_vec ctx (blast ctx a)
  | E.Unop (E.Neg, a) ->
    fst (add_vec ctx ~carry:B.tru (not_vec ctx (blast ctx a))
           (Array.make (E.width a) B.fls))
  | E.Unop (E.Reduce_or, a) ->
    [| Array.fold_left (B.disj m) B.fls (blast ctx a) |]
  | E.Unop (E.Reduce_and, a) ->
    [| Array.fold_left (B.conj m) B.tru (blast ctx a) |]
  | E.Binop (op, a, b) -> blast_binop ctx op a b
  | E.Mux (s, a, b) ->
    let sv = (blast ctx s).(0) in
    mux_vec ctx sv (blast ctx a) (blast ctx b)
  | E.Concat (hi, lo) -> Array.append (blast ctx lo) (blast ctx hi)
  | E.Slice (a, hi, lo) -> Array.sub (blast ctx a) lo (hi - lo + 1)
  | E.Zext (a, w) ->
    let av = blast ctx a in
    Array.init w (fun i -> if i < Array.length av then av.(i) else B.fls)
  | E.Sext (a, w) ->
    let av = blast ctx a in
    let top = av.(Array.length av - 1) in
    Array.init w (fun i -> if i < Array.length av then av.(i) else top)
  | E.File_read { file; data_width; addr } ->
    ctx.resolve_file file (blast ctx addr) data_width

and blast_binop ctx op a b =
  let m = ctx.man in
  let av () = blast ctx a and bv () = blast ctx b in
  let map2 f = Array.map2 f (av ()) (bv ()) in
  let ltu a b =
    (* a < b iff no carry out of a + ~b + 1. *)
    let _, cout = add_vec ctx ~carry:B.tru a (not_vec ctx b) in
    B.neg m cout
  in
  match op with
  | E.And -> map2 (B.conj m)
  | E.Or -> map2 (B.disj m)
  | E.Xor -> map2 (B.xor m)
  | E.Add -> fst (add_vec ctx (av ()) (bv ()))
  | E.Sub -> fst (add_vec ctx ~carry:B.tru (av ()) (not_vec ctx (bv ())))
  | E.Mul ->
    let x = av () and y = bv () in
    let w = Array.length x in
    let acc = ref (Array.make w B.fls) in
    for i = 0 to w - 1 do
      let addend =
        Array.init w (fun j ->
            if j - i >= 0 then B.conj m y.(i) x.(j - i) else B.fls)
      in
      acc := fst (add_vec ctx !acc addend)
    done;
    !acc
  | E.Eq ->
    [| Array.fold_left (B.conj m) B.tru (map2 (B.xnor m)) |]
  | E.Ne ->
    [| B.neg m (Array.fold_left (B.conj m) B.tru (map2 (B.xnor m))) |]
  | E.Ltu -> [| ltu (av ()) (bv ()) |]
  | E.Lts ->
    let x = av () and y = bv () in
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
    let x = av () and amt = bv () in
    let w = Array.length x in
    let cur = ref x in
    Array.iteri
      (fun j bit ->
        let k = if j >= 30 then w else min w (1 lsl j) in
        cur := mux_vec ctx bit (shift_const ctx dir !cur k) !cur)
      amt;
    !cur

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
  type nonrec ctx = ctx

  let create man ~resolve_input ~resolve_file =
    { man; resolve_input; resolve_file }

  let expr = blast
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
