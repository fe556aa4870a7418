(* The BDD engine and the symbolic equivalence checker. *)

module B = Hw.Bdd
module E = Hw.Expr
module Q = Proof_engine.Equiv

(* ---------------- BDD basics ---------------- *)

let test_bdd_basics () =
  let m = B.manager () in
  let a = B.var m 0 and b = B.var m 1 in
  Alcotest.(check bool) "a&b = b&a" true
    (B.equal (B.conj m a b) (B.conj m b a));
  Alcotest.(check bool) "a|~a = true" true
    (B.is_tru (B.disj m a (B.neg m a)));
  Alcotest.(check bool) "a&~a = false" true
    (B.is_fls (B.conj m a (B.neg m a)));
  Alcotest.(check bool) "xor assoc" true
    (B.equal
       (B.xor m (B.xor m a b) a)
       b);
  Alcotest.(check bool) "demorgan" true
    (B.equal
       (B.neg m (B.conj m a b))
       (B.disj m (B.neg m a) (B.neg m b)))

let test_bdd_sat () =
  let m = B.manager () in
  let a = B.var m 0 and b = B.var m 1 in
  let f = B.conj m a (B.neg m b) in
  (match B.any_sat m f with
  | Some assign ->
    let get v = List.assoc_opt v assign = Some true in
    Alcotest.(check bool) "satisfies" true (B.eval m f get)
  | None -> Alcotest.fail "satisfiable function reported unsat");
  Alcotest.(check bool) "false unsat" true (B.any_sat m B.fls = None)

(* ---------------- blaster vs evaluator ---------------- *)

let arb_expr =
  let open QCheck.Gen in
  let rec gen depth w =
    if depth = 0 then
      oneof
        [
          (int_bound 500 >|= fun v -> E.const_int ~width:w v);
          return (E.input (Printf.sprintf "p%d" w) w);
          return (E.input (Printf.sprintf "q%d" w) w);
        ]
    else
      frequency
        [
          (2, gen 0 w);
          ( 5,
            oneofl
              [ E.Add; E.Sub; E.And; E.Or; E.Xor; E.Shl; E.Shr; E.Sra ]
            >>= fun op ->
            gen (depth - 1) w >>= fun a ->
            gen (depth - 1) w >|= fun b -> E.Binop (op, a, b) );
          ( 2,
            oneofl [ E.Eq; E.Ne; E.Ltu; E.Lts ] >>= fun op ->
            gen (depth - 1) w >>= fun a ->
            gen (depth - 1) w >|= fun b -> E.Zext (E.Binop (op, a, b), w) );
          ( 2,
            gen (depth - 1) 1 >>= fun s ->
            gen (depth - 1) w >>= fun a ->
            gen (depth - 1) w >|= fun b -> E.Mux (s, a, b) );
          (1, gen (depth - 1) w >|= fun a -> E.Unop (E.Not, a));
          (1, gen (depth - 1) w >|= fun a -> E.Unop (E.Neg, a));
        ]
  in
  QCheck.make ~print:E.to_string (int_range 1 8 >>= fun w -> gen 3 w)

(* The checker against itself: e is always equivalent to e, and the
   blast semantics agree with the evaluator (via a self-equivalence
   through a syntactically different form). *)
let prop_self_equivalent =
  QCheck.Test.make ~name:"e === e" ~count:300 arb_expr (fun e ->
      match Q.check e e with Q.Equivalent _ -> true | _ -> false)

(* A rewrite the test builds itself, so the checker must prove
   structurally unrelated trees equal: every input is wrapped in a
   double negation, the operands of commutative operators are swapped,
   and/or go through De Morgan, and a mux tests the negated select
   with its arms swapped. *)
let rec rewrite e =
  let not_ e = E.Unop (E.Not, e) in
  match e with
  | E.Const _ -> e
  | E.Input _ -> not_ (not_ e)
  | E.Binop (E.And, a, b) ->
    not_ (E.Binop (E.Or, not_ (rewrite a), not_ (rewrite b)))
  | E.Binop (E.Or, a, b) ->
    not_ (E.Binop (E.And, not_ (rewrite a), not_ (rewrite b)))
  | E.Binop (((E.Add | E.Mul | E.Xor | E.Eq | E.Ne) as op), a, b) ->
    E.Binop (op, rewrite b, rewrite a)
  | E.Binop (op, a, b) -> E.Binop (op, rewrite a, rewrite b)
  | E.Unop (op, a) -> E.Unop (op, rewrite a)
  | E.Mux (c, a, b) -> E.Mux (not_ (rewrite c), rewrite b, rewrite a)
  | E.Concat (a, b) -> E.Concat (rewrite a, rewrite b)
  | E.Slice (a, hi, lo) -> E.Slice (rewrite a, hi, lo)
  | E.Zext (a, w) -> E.Zext (rewrite a, w)
  | E.Sext (a, w) -> E.Sext (rewrite a, w)
  | E.File_read r -> E.File_read { r with addr = rewrite r.addr }

let prop_rewrite_equivalent =
  QCheck.Test.make ~name:"rewrite e === e (symbolic proof)"
    ~count:300 arb_expr (fun e ->
      let e' = rewrite e in
      (E.inputs e = [] || e' <> e)
      &&
      match Q.check e e' with
      | Q.Equivalent _ -> true
      | Q.Different c ->
        QCheck.Test.fail_reportf "differs at %s"
          (String.concat ","
             (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
                c.Q.cex_inputs))
      | Q.Width_mismatch _ -> false)

let prop_counterexamples_are_real =
  QCheck.Test.make ~name:"counterexamples evaluate to different values"
    ~count:200
    QCheck.(pair arb_expr arb_expr)
    (fun (a, b) ->
      QCheck.assume (E.width a = E.width b);
      match Q.check a b with
      | Q.Equivalent _ -> true
      | Q.Width_mismatch _ -> false
      | Q.Different c ->
        (* Re-evaluate both sides with the concrete inputs. *)
        let env =
          Hw.Eval.env_of_assoc
            (List.map
               (fun (n, v) ->
                 let w = List.assoc n (E.inputs a @ E.inputs b) in
                 (n, Hw.Bitvec.make ~width:w v))
               c.Q.cex_inputs)
        in
        let va = Hw.Eval.eval env a and vb = Hw.Eval.eval env b in
        Hw.Bitvec.equal va c.Q.cex_left
        && Hw.Bitvec.equal vb c.Q.cex_right
        && not (Hw.Bitvec.equal va vb))

(* ---------------- selection networks ---------------- *)

let test_chain_tree_bus_equivalent () =
  List.iter
    (fun (sources, width) ->
      let net impl =
        Pipeline.Mux_impl.build_network ~impl ~sources ~data_width:width
      in
      (match Q.check (net Hw.Circuits.Chain) (net Hw.Circuits.Tree) with
      | Q.Equivalent _ -> ()
      | r -> Alcotest.failf "chain/tree %d: %a" sources Q.pp_result r);
      match Q.check (net Hw.Circuits.Tree) (net Hw.Circuits.Bus) with
      | Q.Equivalent _ -> ()
      | r -> Alcotest.failf "tree/bus %d: %a" sources Q.pp_result r)
    [ (1, 4); (2, 8); (4, 8); (6, 8); (8, 4) ]

let test_dlx_g_networks_equivalent () =
  (* The actual generated GPR forwarding networks of the DLX, chain vs
     tree, proven equal for every hit/candidate/register valuation
     (file reads uninterpreted). *)
  let p = Dlx.Progs.fib 5 in
  let build impl =
    let tr =
      Dlx.Seq_dlx.transform
        ~options:{ Pipeline.Fwd_spec.mode = Pipeline.Fwd_spec.Full; impl }
        ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
        ~program:(Dlx.Progs.program p)
    in
    List.assoc "$g_1_GPRa" tr.Pipeline.Transform.signals
  in
  match Q.check (build Hw.Circuits.Chain) (build Hw.Circuits.Tree) with
  | Q.Equivalent { variables; _ } ->
    Alcotest.(check bool) "nontrivial" true (variables > 50)
  | r -> Alcotest.failf "%a" Q.pp_result r

(* ---------------- tautologies ---------------- *)

let test_tautology () =
  let x = E.input "x" 8 in
  Alcotest.(check bool) "x = x" true (Q.tautology (E.( ==: ) x x));
  Alcotest.(check bool) "s or not s" true
    (Q.tautology (E.( ||: ) (E.input "s" 1) (E.not_ (E.input "s" 1))));
  Alcotest.(check bool) "x = 0 not valid" false
    (Q.tautology (E.( ==: ) x (E.const_int ~width:8 0)));
  (* De Morgan at width 8. *)
  let y = E.input "y" 8 in
  Alcotest.(check bool) "de morgan" true
    (Q.tautology
       (E.( ==: )
          (E.Unop (E.Not, E.Binop (E.And, x, y)))
          (E.Binop (E.Or, E.Unop (E.Not, x), E.Unop (E.Not, y)))))

let test_arithmetic_facts () =
  let x = E.input "x" 6 and y = E.input "y" 6 in
  (* Commutativity of addition, symbolically. *)
  Q.check_exn (E.( +: ) x y) (E.( +: ) y x);
  (* x - y = x + (-y). *)
  Q.check_exn (E.( -: ) x y) (E.( +: ) x (E.Unop (E.Neg, y)));
  (* Shift-left by 1 doubles. *)
  Q.check_exn
    (E.Binop (E.Shl, x, E.const_int ~width:3 1))
    (E.( +: ) x x);
  (* Multiplication by 3. *)
  Q.check_exn
    (E.Binop (E.Mul, x, E.const_int ~width:6 3))
    (E.( +: ) (E.( +: ) x x) x)

(* Width-62 signed ops: the BDD encoding reads bit 61 as the sign, and
   the tree-walker and the tape must agree with it.  Symbolically, a
   62-bit [x <s 0] is its sign bit and [x >>> 1] keeps the sign; on
   constants, each evaluated value is proved equal to the BDD's. *)
let test_signed_width62 () =
  let w = Hw.Bitvec.max_width in
  let x = E.input "x" w in
  let sign = E.Slice (x, w - 1, w - 1) in
  Q.check_exn (E.Binop (E.Lts, x, E.const_int ~width:w 0)) sign;
  Q.check_exn
    (E.Binop (E.Sra, x, E.const_int ~width:w 1))
    (E.Concat (sign, E.Slice (x, w - 1, 1)));
  let top = 1 lsl (w - 1) in
  List.iter
    (fun (op, a, b) ->
      let e = E.Binop (op, E.const_int ~width:w a, E.const_int ~width:w b) in
      let tree = Hw.Eval.eval (Hw.Eval.env_of_assoc []) e in
      let tape =
        (Hw.Eval.run_plan
           (Hw.Eval.compile { Hw.Eval.spec_inputs = []; spec_files = [] } [ e ])
           (Hw.Eval.env_of_assoc [])).(0)
      in
      Q.check_exn e (E.Const tree);
      Q.check_exn e (E.Const tape))
    [
      (E.Lts, top, 0);
      (E.Lts, 0, top);
      (E.Lts, top, top - 1);
      (E.Sra, top, 1);
      (E.Sra, top lor 5, 3);
      (E.Sra, top - 1, 1);
    ]

let test_width_mismatch () =
  match Q.check (E.input "x" 4) (E.input "x" 8) with
  | Q.Width_mismatch (4, 8) -> ()
  | _ -> Alcotest.fail "expected width mismatch"

(* BDD-level properties: random boolean formulas agree with a direct
   truth-table evaluation. *)
let arb_formula =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then int_range 0 4 >|= fun v -> `Var v
    else
      frequency
        [
          (1, gen 0);
          (2, map2 (fun a b -> `And (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> `Or (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> `Xor (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (1, map (fun a -> `Not a) (gen (depth - 1)));
          ( 1,
            map3 (fun a b c -> `Ite (a, b, c)) (gen (depth - 1))
              (gen (depth - 1)) (gen (depth - 1)) );
        ]
  in
  let rec print = function
    | `Var v -> Printf.sprintf "x%d" v
    | `And (a, b) -> Printf.sprintf "(%s & %s)" (print a) (print b)
    | `Or (a, b) -> Printf.sprintf "(%s | %s)" (print a) (print b)
    | `Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (print a) (print b)
    | `Not a -> Printf.sprintf "~%s" (print a)
    | `Ite (a, b, c) ->
      Printf.sprintf "(%s ? %s : %s)" (print a) (print b) (print c)
  in
  QCheck.make ~print (gen 5)

let rec formula_to_bdd m = function
  | `Var v -> B.var m v
  | `And (a, b) -> B.conj m (formula_to_bdd m a) (formula_to_bdd m b)
  | `Or (a, b) -> B.disj m (formula_to_bdd m a) (formula_to_bdd m b)
  | `Xor (a, b) -> B.xor m (formula_to_bdd m a) (formula_to_bdd m b)
  | `Not a -> B.neg m (formula_to_bdd m a)
  | `Ite (a, b, c) ->
    B.ite m (formula_to_bdd m a) (formula_to_bdd m b) (formula_to_bdd m c)

let rec formula_eval env = function
  | `Var v -> env v
  | `And (a, b) -> formula_eval env a && formula_eval env b
  | `Or (a, b) -> formula_eval env a || formula_eval env b
  | `Xor (a, b) -> formula_eval env a <> formula_eval env b
  | `Not a -> not (formula_eval env a)
  | `Ite (a, b, c) ->
    if formula_eval env a then formula_eval env b else formula_eval env c

let prop_bdd_truth_table =
  QCheck.Test.make ~name:"BDD agrees with the truth table over 5 variables"
    ~count:300 arb_formula (fun f ->
      let m = B.manager () in
      let bdd = formula_to_bdd m f in
      let ok = ref true in
      for bits = 0 to 31 do
        let env v = (bits lsr v) land 1 = 1 in
        if B.eval m bdd env <> formula_eval env f then ok := false
      done;
      !ok)

let prop_bdd_canonical =
  QCheck.Test.make
    ~name:"semantically equal formulas share one BDD node" ~count:300
    QCheck.(pair arb_formula arb_formula)
    (fun (f, g) ->
      let m = B.manager () in
      let bf = formula_to_bdd m f and bg = formula_to_bdd m g in
      let same_semantics =
        let ok = ref true in
        for bits = 0 to 31 do
          let env v = (bits lsr v) land 1 = 1 in
          if formula_eval env f <> formula_eval env g then ok := false
        done;
        !ok
      in
      B.equal bf bg = same_semantics)

(* ---------------- lossless tables ---------------- *)

let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

(* The unique table and the ite memo are open-addressing tables that
   start at 1024 entries and double once three quarters full.  Canonicity survives
   every growth: within one manager that grows several times, two
   handles are equal exactly when their truth tables over 8 inputs are.
   Each formula is built twice, the second time through a rewrite into
   other connectives, so equal truth tables are common. *)
let rec rewrite = function
  | `Var v -> `Not (`Not (`Var v))
  | `And (a, b) -> `Not (`Or (`Not (rewrite a), `Not (rewrite b)))
  | `Or (a, b) -> `Not (`And (`Not (rewrite b), `Not (rewrite a)))
  | `Xor (a, b) -> `Not (`Xor (`Not (rewrite a), rewrite b))
  | `Not a -> `Not (rewrite a)
  | `Ite (a, b, c) -> `Ite (`Not (rewrite a), rewrite c, rewrite b)

let arb_formulas8 =
  (* A direct sampler: composing [QCheck.Gen] combinators per depth
     would build the whole generator tree for every sample. *)
  let rec gen depth st =
    let sub () = gen (depth - 1) st in
    if depth = 0 then `Var (Random.State.int st 8)
    else
      match Random.State.int st 10 with
      | 0 -> gen 0 st
      | 1 | 2 -> let a = sub () in `And (a, sub ())
      | 3 | 4 -> let a = sub () in `Or (a, sub ())
      | 5 | 6 | 7 -> let a = sub () in `Xor (a, sub ())
      | 8 -> `Not (sub ())
      | _ ->
        let a = sub () in
        let b = sub () in
        `Ite (a, b, sub ())
  in
  QCheck.make
    ~print:(fun fs ->
      Printf.sprintf "QCHECK_SEED=%d: %d formulas" qcheck_seed (List.length fs))
    QCheck.Gen.(
      list_size (int_range 150 200) (fun st -> gen (1 + Random.State.int st 6) st))

let truth_table8 f =
  String.init 256 (fun bits ->
      if formula_eval (fun v -> (bits lsr v) land 1 = 1) f then '1' else '0')

let prop_bdd_tables_lossless =
  QCheck.Test.make
    ~name:"equal handles iff equal truth tables across table growths"
    ~count:12 arb_formulas8
    (fun fs ->
      let m = B.manager () in
      let by_table = Hashtbl.create 512 and by_handle = Hashtbl.create 512 in
      let agree f =
        let h = formula_to_bdd m f and tt = truth_table8 f in
        String.iteri
          (fun bits c ->
            if B.eval m h (fun v -> (bits lsr v) land 1 = 1) <> (c = '1') then
              QCheck.Test.fail_reportf "BDD disagrees with its truth table")
          tt;
        (match Hashtbl.find_opt by_table tt with
        | Some h' when not (B.equal h h') ->
          QCheck.Test.fail_report "equal truth tables, different handles"
        | Some _ | None -> Hashtbl.replace by_table tt h);
        match Hashtbl.find_opt by_handle h with
        | Some tt' when tt' <> tt ->
          QCheck.Test.fail_report "equal handles, different truth tables"
        | Some _ | None -> Hashtbl.replace by_handle h tt
      in
      List.iter (fun f -> agree f; agree (rewrite f)) fs;
      (* Past 4096 nodes the unique table has doubled at least three
         times, and the memo (which holds an entry per new node and
         more) as often. *)
      if B.node_count m <= 4096 then
        QCheck.Test.fail_reportf "only %d nodes: too few to grow the tables"
          (B.node_count m);
      true)

let test_symsim_toy_node_count () =
  (* Node ids and counts are the same as with any other lossless table,
     and proofs print them: [proof toy3] reports this figure. *)
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  match Proof_engine.Symsim.check ~instructions:6 tr with
  | Proof_engine.Symsim.Proved { instructions; variables; bdd_nodes } ->
    Alcotest.(check int) "instructions" 6 instructions;
    Alcotest.(check int) "variables" 256 variables;
    Alcotest.(check int) "BDD nodes" 37_032 bdd_nodes
  | o ->
    Alcotest.failf "not proved: %a" Proof_engine.Symsim.pp_outcome o

let () =
  Alcotest.run "equiv"
    [
      ( "bdd",
        [
          Alcotest.test_case "basics" `Quick test_bdd_basics;
          Alcotest.test_case "sat" `Quick test_bdd_sat;
          QCheck_alcotest.to_alcotest prop_bdd_truth_table;
          QCheck_alcotest.to_alcotest prop_bdd_canonical;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| qcheck_seed |])
            prop_bdd_tables_lossless;
          Alcotest.test_case "toy3 symbolic node count" `Quick
            test_symsim_toy_node_count;
        ] );
      ( "checker",
        [
          Alcotest.test_case "tautologies" `Quick test_tautology;
          Alcotest.test_case "arithmetic facts" `Quick test_arithmetic_facts;
          Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
          Alcotest.test_case "width-62 signed ops" `Quick test_signed_width62;
        ] );
      ( "networks",
        [
          Alcotest.test_case "chain = tree = bus" `Quick
            test_chain_tree_bus_equivalent;
          Alcotest.test_case "dlx g networks" `Quick
            test_dlx_g_networks_equivalent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_self_equivalent;
            prop_rewrite_equivalent;
            prop_counterexamples_are_real;
          ] );
    ]
