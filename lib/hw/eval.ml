type env = {
  lookup_input : string -> Bitvec.t;
  lookup_file : string -> Bitvec.t -> Bitvec.t;
}

exception Eval_error of string

let err fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let eval_unop op a =
  match op with
  | Expr.Not -> Bitvec.lognot a
  | Expr.Neg -> Bitvec.neg a
  | Expr.Reduce_or -> Bitvec.of_bool (not (Bitvec.is_zero a))
  | Expr.Reduce_and -> Bitvec.of_bool (Bitvec.equal a (Bitvec.ones (Bitvec.width a)))

let eval_binop op a b =
  match op with
  | Expr.Add -> Bitvec.add a b
  | Expr.Sub -> Bitvec.sub a b
  | Expr.Mul -> Bitvec.mul a b
  | Expr.And -> Bitvec.logand a b
  | Expr.Or -> Bitvec.logor a b
  | Expr.Xor -> Bitvec.logxor a b
  | Expr.Eq -> Bitvec.eq a b
  | Expr.Ne -> Bitvec.lognot (Bitvec.eq a b)
  | Expr.Ltu -> Bitvec.lt_unsigned a b
  | Expr.Lts -> Bitvec.lt_signed a b
  | Expr.Shl -> Bitvec.shift_left a (Bitvec.to_int b)
  | Expr.Shr -> Bitvec.shift_right_logical a (Bitvec.to_int b)
  | Expr.Sra -> Bitvec.shift_right_arith a (Bitvec.to_int b)

let rec eval env e =
  match e with
  | Expr.Const v -> v
  | Expr.Input (n, w) ->
    let v = try env.lookup_input n with Not_found -> err "unknown input %s" n in
    if Bitvec.width v <> w then
      err "input %s: stored width %d, expression expects %d" n (Bitvec.width v) w
    else v
  | Expr.Unop (op, a) -> eval_unop op (eval env a)
  | Expr.Binop (op, a, b) -> eval_binop op (eval env a) (eval env b)
  | Expr.Mux (s, a, b) ->
    if Bitvec.to_bool (eval env s) then eval env a else eval env b
  | Expr.Concat (a, b) -> Bitvec.concat (eval env a) (eval env b)
  | Expr.Slice (a, hi, lo) -> Bitvec.slice (eval env a) ~hi ~lo
  | Expr.Zext (a, w) -> Bitvec.zero_extend (eval env a) w
  | Expr.Sext (a, w) -> Bitvec.sign_extend (eval env a) w
  | Expr.File_read { file; data_width; addr } ->
    let v =
      try env.lookup_file file (eval env addr)
      with Not_found -> err "unknown register file %s" file
    in
    if Bitvec.width v <> data_width then
      err "file %s: stored width %d, expression expects %d" file
        (Bitvec.width v) data_width
    else v

let eval_bool env e = Bitvec.to_bool (eval env e)

(* Hash-table-backed lookup; [List.rev] + [replace] keeps the
   first-binding-wins semantics of [List.assoc]. *)
let tbl_of_assoc l =
  let tbl = Hashtbl.create (max 16 (List.length l)) in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) (List.rev l);
  tbl

let env_of_assoc ?(files = []) bindings =
  let inputs = tbl_of_assoc bindings in
  let files = tbl_of_assoc files in
  {
    lookup_input = (fun n -> Hashtbl.find inputs n);
    lookup_file = (fun f addr -> (Hashtbl.find files f) addr);
  }

type env_spec = {
  spec_inputs : (string * int) list;
  spec_files : (string * int) list;
}

type compiled = {
  plan : Plan.t;
  roots : int array;
}

let compile spec exprs =
  let b =
    Plan.create ~inputs:spec.spec_inputs ~files:spec.spec_files ()
  in
  let roots = Array.of_list (List.map (Plan.root b) exprs) in
  { plan = Plan.build b; roots }

let run_plan c env =
  let inst = Plan.instance c.plan in
  Plan.iter_inputs c.plan (fun name ~slot ~width:_ ->
      let v =
        try env.lookup_input name
        with Not_found -> err "unknown input %s" name
      in
      try Plan.set inst slot v with Plan.Run_error m -> err "%s" m);
  Plan.iter_files c.plan (fun name ~index:_ ~width:_ ->
      Plan.bind_file inst name (fun addr ->
          try env.lookup_file name (Bitvec.make ~width:Bitvec.max_width addr)
          with Not_found -> err "unknown register file %s" name));
  (try Plan.run inst with Plan.Run_error m -> err "%s" m);
  Array.map (Plan.get inst) c.roots
