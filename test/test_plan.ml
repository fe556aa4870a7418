(* The compiled evaluation core (Hw.Plan): differential testing
   against the legacy tree-walking interpreter over randomly generated
   well-typed expressions covering every operator, compile-time width
   rejection, hash-consing, and the Eval.compile bridge. *)

module E = Hw.Expr
module B = Hw.Bitvec
module P = Hw.Plan

(* Explicit qcheck seeding: QCHECK_SEED when set, a fixed default
   otherwise, threaded into the properties and printed with each
   counterexample so a failure replays with
   `QCHECK_SEED=<n> dune runtest`. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

let bv ~width v = B.make ~width (v land ((1 lsl width) - 1))

(* A deterministic register file shared by every evaluation path. *)
let mem_width = 8
let mem_at a = bv ~width:mem_width ((a * 37) + 11)  (* plan readers: raw address *)
let mem_fun addr = mem_at (B.to_int addr)

let legacy_env bindings =
  let base = Hw.Eval.env_of_assoc bindings in
  {
    base with
    Hw.Eval.lookup_file =
      (fun name addr ->
        if name = "mem" then mem_fun addr else raise Not_found);
  }

(* ------------------------------------------------------------------ *)
(* Random well-typed expressions, all operators, random widths.        *)
(* Input names encode their width ("v<w>_<i>") so any two occurrences  *)
(* agree.                                                              *)
(* ------------------------------------------------------------------ *)

let arb_expr_seed =
  let open QCheck.Gen in
  let leaf w =
    oneof
      [
        (int_bound ((1 lsl min w 20) - 1) >|= fun v -> E.const_int ~width:w v);
        ( int_bound 2 >|= fun i ->
          E.input (Printf.sprintf "v%d_%d" w i) w );
      ]
  in
  let rec gen depth w =
    if depth = 0 then leaf w
    else
      let sub = gen (depth - 1) in
      let arith =
        ( 4,
          oneofl [ E.Add; E.Sub; E.Mul; E.And; E.Or; E.Xor ] >>= fun op ->
          sub w >>= fun a ->
          sub w >|= fun b -> E.Binop (op, a, b) )
      in
      let shifts =
        ( 2,
          oneofl [ E.Shl; E.Shr; E.Sra ] >>= fun op ->
          sub w >>= fun a ->
          int_range 1 4 >>= fun wb ->
          sub wb >|= fun b -> E.Binop (op, a, b) )
      in
      let mux =
        ( 2,
          sub 1 >>= fun s ->
          sub w >>= fun a ->
          sub w >|= fun b -> E.Mux (s, a, b) )
      in
      let unops =
        ( 2,
          oneofl [ E.Not; E.Neg ] >>= fun op ->
          sub w >|= fun a -> E.Unop (op, a) )
      in
      let slice =
        ( 1,
          int_range w 16 >>= fun wa ->
          int_range 0 (wa - w) >>= fun lo ->
          sub wa >|= fun a -> E.Slice (a, lo + w - 1, lo) )
      in
      let extend =
        ( 1,
          int_range 1 w >>= fun wa ->
          oneofl [ (fun a -> E.Zext (a, w)); (fun a -> E.Sext (a, w)) ]
          >>= fun mk ->
          sub wa >|= mk )
      in
      let concat =
        (* [max] keeps the range valid when [w = 1]; the branch is only
           selected for [w > 1]. *)
        ( 1,
          int_range 1 (max 1 (w - 1)) >>= fun w1 ->
          sub w1 >>= fun hi ->
          sub (w - w1) >|= fun lo -> E.Concat (hi, lo) )
      in
      let one_bit =
        [
          ( 2,
            oneofl [ E.Eq; E.Ne; E.Ltu; E.Lts ] >>= fun op ->
            int_range 1 16 >>= fun wa ->
            sub wa >>= fun a ->
            sub wa >|= fun b -> E.Binop (op, a, b) );
          ( 1,
            oneofl [ E.Reduce_or; E.Reduce_and ] >>= fun op ->
            int_range 1 16 >>= fun wa ->
            sub wa >|= fun a -> E.Unop (op, a) );
        ]
      in
      let file_read =
        ( 1,
          int_range 1 8 >>= fun wa ->
          sub wa >|= fun addr ->
          E.File_read { file = "mem"; data_width = mem_width; addr } )
      in
      frequency
        ((1, leaf w) :: arith :: shifts :: mux :: unops :: unops
        :: (if w > 1 then [ slice; extend; concat ] else [ slice ])
        @ (if w = 1 then one_bit else [])
        @ if w = mem_width then [ file_read ] else [])
  in
  QCheck.make
    ~print:(fun (e, seed) ->
      Printf.sprintf "QCHECK_SEED=%d value seed %d: %s" qcheck_seed seed
        (E.to_string e))
    QCheck.Gen.(
      pair
        (int_range 1 16 >>= fun w -> gen 4 w)
        (int_bound 1_000_000))

(* Deterministic pseudo-random input values from the seed. *)
let bindings_of e seed =
  List.map
    (fun (name, w) -> (name, bv ~width:w (Hashtbl.hash (name, seed))))
    (E.inputs e)

(* Evaluate [e] through the direct Plan API: the instance and the
   result slot. *)
let plan_run e bindings =
  let b = P.create ~auto:true ~files:[ ("mem", mem_width) ] () in
  let slot = P.root b e in
  let plan = P.build b in
  let inst = P.instance plan in
  P.bind_file inst "mem" mem_at;
  P.iter_inputs plan (fun name ~slot ~width:_ ->
      P.set inst slot (List.assoc name bindings));
  P.run inst;
  (inst, slot)

let plan_value e bindings =
  let inst, slot = plan_run e bindings in
  P.get inst slot

(* Evaluate [e] through the Eval.compile bridge (closure env in, plan
   underneath). *)
let bridge_value e bindings =
  let spec =
    {
      Hw.Eval.spec_inputs = E.inputs e;
      spec_files = [ ("mem", mem_width) ];
    }
  in
  let compiled = Hw.Eval.compile spec [ e ] in
  (Hw.Eval.run_plan compiled (legacy_env bindings)).(0)

let prop_plan_matches_interpreter =
  QCheck.Test.make ~name:"plan = tree-walking eval (all ops)" ~count:500
    arb_expr_seed (fun (e, seed) ->
      let bindings = bindings_of e seed in
      let reference = Hw.Eval.eval (legacy_env bindings) e in
      B.equal reference (plan_value e bindings)
      && B.equal reference (bridge_value e bindings))

(* ------------------------------------------------------------------ *)
(* The 62-bit edges.  Widths 1..62 biased to the word boundaries,      *)
(* operands biased to 0, 1, all-ones and the lone sign bit, shift      *)
(* amounts at and past the width, and Add/Sub/Mul that wrap at 62      *)
(* bits — checked through the scalar tape ([run]) and the lane tape    *)
(* ([run_lanes]) against the tree-walking interpreter.                 *)
(* ------------------------------------------------------------------ *)

let mask w = if w = B.max_width then max_int else (1 lsl w) - 1

let edge_values w =
  let m = mask w and sign = 1 lsl (w - 1) in
  List.map (fun v -> v land m) [ 0; 1; m; sign; m - 1; sign - 1; sign + 1 ]

let arb_edge_expr =
  let open QCheck.Gen in
  let width =
    frequency [ (3, oneofl [ 1; 2; 31; 32; 33; 61; 62 ]); (2, int_range 1 62) ]
  in
  let value w =
    frequency [ (3, oneofl (edge_values w)); (1, int >|= fun v -> v land mask w) ]
  in
  let leaf w =
    oneof
      [
        (value w >|= fun v -> E.Const (B.make ~width:w v));
        (int_bound 2 >|= fun i -> E.input (Printf.sprintf "e%d_%d" w i) w);
      ]
  in
  (* A shift amount of 1..8 bits holding the width, just past it, or
     anything else. *)
  let amount w sub =
    int_range 1 8 >>= fun wb ->
    frequency
      [
        ( 2,
          oneofl [ w - 1; w; w + 1; w + 5; 0; 1; mask wb ] >|= fun v ->
          E.Const (B.make ~width:wb (min v (mask wb))) );
        (1, sub wb);
      ]
  in
  let rec gen depth w =
    if depth = 0 then leaf w
    else
      let sub = gen (depth - 1) in
      let ops =
        [
          ( 4,
            oneofl [ E.Add; E.Sub; E.Mul; E.And; E.Or; E.Xor ] >>= fun op ->
            sub w >>= fun a ->
            sub w >|= fun b -> E.Binop (op, a, b) );
          ( 3,
            oneofl [ E.Shl; E.Shr; E.Sra ] >>= fun op ->
            sub w >>= fun a ->
            amount w sub >|= fun b -> E.Binop (op, a, b) );
          ( 1,
            sub 1 >>= fun c ->
            sub w >>= fun a ->
            sub w >|= fun b -> E.Mux (c, a, b) );
          ( 2,
            oneofl [ E.Not; E.Neg ] >>= fun op ->
            sub w >|= fun a -> E.Unop (op, a) );
          ( 1,
            int_range w 62 >>= fun wa ->
            int_range 0 (wa - w) >>= fun lo ->
            sub wa >|= fun a -> E.Slice (a, lo + w - 1, lo) );
          (1, leaf w);
        ]
      in
      let wide =
        if w = 1 then []
        else
          [
            ( 1,
              int_range 1 w >>= fun wa ->
              oneofl [ (fun a -> E.Zext (a, w)); (fun a -> E.Sext (a, w)) ]
              >>= fun mk -> sub wa >|= mk );
            ( 1,
              int_range 1 (w - 1) >>= fun w1 ->
              sub w1 >>= fun hi ->
              sub (w - w1) >|= fun lo -> E.Concat (hi, lo) );
          ]
      in
      let one_bit =
        if w > 1 then []
        else
          [
            ( 3,
              oneofl [ E.Eq; E.Ne; E.Ltu; E.Lts ] >>= fun op ->
              width >>= fun wa ->
              sub wa >>= fun a ->
              sub wa >|= fun b -> E.Binop (op, a, b) );
            ( 1,
              oneofl [ E.Reduce_or; E.Reduce_and ] >>= fun op ->
              width >>= fun wa ->
              sub wa >|= fun a -> E.Unop (op, a) );
          ]
      in
      let file =
        if w <> mem_width then []
        else
          [
            ( 1,
              int_range 1 8 >>= fun wa ->
              sub wa >|= fun addr ->
              E.File_read { file = "mem"; data_width = mem_width; addr } );
          ]
      in
      frequency (ops @ wide @ one_bit @ file)
  in
  QCheck.make
    ~print:(fun (e, seed) ->
      Printf.sprintf "QCHECK_SEED=%d value seed %d: %s" qcheck_seed seed
        (E.to_string e))
    QCheck.Gen.(pair (width >>= gen 3) (int_bound 1_000_000))

(* Input values from the seed, biased to the same edges. *)
let edge_bindings e seed =
  List.map
    (fun (name, w) ->
      let h = Hashtbl.hash (name, seed) in
      let edges = edge_values w in
      let v =
        if h mod 4 = 0 then (h * 0x9E3779B9) land mask w
        else List.nth edges (h mod List.length edges)
      in
      (name, B.make ~width:w v))
    (E.inputs e)

(* [lanes] programs at once through the lane tape: lane [l] binds the
   inputs of seed [seed + l].  Returns each lane's raw result. *)
let lanes_values e seed ~lanes =
  let b = P.create ~auto:true ~files:[ ("mem", mem_width) ] () in
  let slot = P.root b e in
  let plan = P.build b in
  let ln = P.lanes ~capacity:lanes plan in
  let binds = Array.init lanes (fun l -> edge_bindings e (seed + l)) in
  P.lanes_bind_file ln "mem"
    (Array.init lanes (fun _ -> Array.init 256 (fun a -> B.to_int (mem_at a))));
  P.iter_inputs plan (fun name ~slot ~width:_ ->
      let v l = B.to_int (List.assoc name binds.(l)) in
      if P.lanes_is_bool ln slot then begin
        let w = ref 0 in
        for l = 0 to lanes - 1 do
          w := !w lor (v l lsl l)
        done;
        P.lanes_set_word ln slot !w
      end
      else
        let row = P.lanes_ints ln slot in
        for l = 0 to lanes - 1 do
          row.(l) <- v l
        done);
  P.run_lanes ln;
  Array.init lanes (fun l -> P.lanes_get ln slot l)

(* The scalar tape's raw result: a slot must hold its value masked to
   the slot's width, which [get]'s boxing would otherwise hide. *)
let plan_raw e bindings =
  let inst, slot = plan_run e bindings in
  P.get_raw inst slot

(* Every operator on every pair of boundary operands, at the widths
   around the word edges: one lane per pair through [run_lanes], the
   same pairs one by one through [run].  Shift amounts are 8 bits wide
   and hold 0, 1, the width and either side of it, and amounts of 64
   and more (a raw shift by those is undefined in OCaml). *)
let test_edge_table () =
  let check_expr ?expect ~what e inputs rows =
    let b = P.create ~auto:true () in
    let slot = P.root b e in
    let plan = P.build b in
    let inst = P.instance plan in
    let ln = P.lanes ~capacity:(Array.length rows) plan in
    List.iteri
      (fun i (name, _) ->
        let s = Option.get (P.input_slot plan name) in
        if P.lanes_is_bool ln s then
          P.lanes_set_word ln s
            (Array.fold_left ( lor ) 0
               (Array.mapi (fun l r -> List.nth r i lsl l) rows))
        else Array.iteri (fun l r -> (P.lanes_ints ln s).(l) <- List.nth r i) rows)
      inputs;
    P.run_lanes ln;
    Array.iteri
      (fun l r ->
        let bindings =
          List.map2 (fun (name, w) v -> (name, B.make ~width:w v)) inputs r
        in
        let reference = B.to_int (Hw.Eval.eval (Hw.Eval.env_of_assoc bindings) e) in
        Option.iter
          (fun x -> Alcotest.(check int) (what ^ " tree-walker") x reference)
          expect;
        List.iter
          (fun (name, v) -> P.set inst (Option.get (P.input_slot plan name)) v)
          bindings;
        P.run inst;
        let show = String.concat "," (List.map string_of_int r) in
        Alcotest.(check int) (Printf.sprintf "%s run (%s)" what show) reference
          (P.get_raw inst slot);
        Alcotest.(check int) (Printf.sprintf "%s run_lanes (%s)" what show)
          reference (P.lanes_get ln slot l))
      rows
  in
  List.iter
    (fun w ->
      let edges = edge_values w in
      List.iter
        (fun op ->
          let shift = match op with E.Shl | E.Shr | E.Sra -> true | _ -> false in
          let wb, bvals =
            if shift then (8, [ 0; 1; w - 1; w; w + 1; 64; 65; 255 ]) else (w, edges)
          in
          let rows =
            Array.of_list
              (List.concat_map (fun a -> List.map (fun b -> [ a; b ]) bvals) edges)
          in
          let e = E.Binop (op, E.input "a" w, E.input "b" wb) in
          check_expr ~what:(E.to_string e) e [ ("a", w); ("b", wb) ] rows)
        E.[ Add; Sub; Mul; And; Or; Xor; Eq; Ne; Ltu; Lts; Shl; Shr; Sra ];
      let a = E.input "a" w in
      let rows = Array.of_list (List.map (fun v -> [ v ]) edges) in
      List.iter
        (fun e -> check_expr ~what:(E.to_string e) e [ ("a", w) ] rows)
        ([
           E.Unop (E.Not, a);
           E.Unop (E.Neg, a);
           E.Unop (E.Reduce_or, a);
           E.Unop (E.Reduce_and, a);
           E.Slice (a, w - 1, w - 1);
         ]
        @
        if w < B.max_width then
          [ E.Sext (a, B.max_width); E.Zext (a, B.max_width);
            E.Concat (a, E.Slice (a, 0, 0)) ]
        else []))
    [ 1; 2; 31; 32; 61; 62 ];
  (* Width-62 signed ops with their two's-complement values written
     out: the rows above only compare the tapes with the tree-walker,
     so a signed reading of a 62-bit value shared by bitvec.ml and the
     tapes would pass there. *)
  let w = B.max_width in
  let sign = 1 lsl (w - 1) and m = mask w in
  List.iter
    (fun (op, a, b, expect) ->
      let e = E.Binop (op, E.input "a" w, E.input "b" w) in
      check_expr ~expect
        ~what:(Printf.sprintf "%s %d %d" (E.to_string e) a b)
        e [ ("a", w); ("b", w) ] [| [ a; b ] |])
    [
      (E.Lts, sign, 0, 1);
      (E.Lts, 0, sign, 0);
      (E.Lts, m, 0, 1);
      (E.Lts, sign, m, 1);
      (E.Lts, sign - 1, sign, 0);
      (E.Sra, sign, 1, 3 lsl (w - 2));
      (E.Sra, sign, w - 1, m);
      (E.Sra, m, 5, m);
      (E.Sra, sign - 1, w - 2, 1);
    ]

let prop_plan_edges =
  QCheck.Test.make ~name:"plan = tree-walking eval (62-bit edges)" ~count:1000
    arb_edge_expr (fun (e, seed) ->
      let reference seed = Hw.Eval.eval (legacy_env (edge_bindings e seed)) e in
      let r = reference seed in
      plan_raw e (edge_bindings e seed) = B.to_int r
      && Array.for_all Fun.id
           (Array.mapi
              (fun l v -> v = B.to_int (reference (seed + l)))
              (lanes_values e seed ~lanes:3)))

(* ------------------------------------------------------------------ *)
(* Compile-time width checking                                         *)
(* ------------------------------------------------------------------ *)

let compiles e =
  let b = P.create ~auto:true () in
  match P.root b e with
  | (_ : int) -> true
  | exception P.Compile_error _ -> false

let test_compile_errors () =
  let i8 = E.input "a" 8 and i4 = E.input "b" 4 in
  Alcotest.(check bool) "binop width mismatch" false
    (compiles (E.Binop (E.Add, i8, i4)));
  Alcotest.(check bool) "comparison width mismatch" false
    (compiles (E.Binop (E.Ltu, i8, i4)));
  Alcotest.(check bool) "mux select too wide" false
    (compiles (E.Mux (i4, i8, i8)));
  Alcotest.(check bool) "mux branch mismatch" false
    (compiles (E.Mux (E.input "s" 1, i8, i4)));
  Alcotest.(check bool) "slice out of range" false
    (compiles (E.Slice (i8, 9, 0)));
  Alcotest.(check bool) "shrinking zext" false (compiles (E.Zext (i8, 4)));
  Alcotest.(check bool) "inconsistent input width" false
    (compiles (E.Binop (E.Add, i8, E.Zext (E.input "a" 4, 8))));
  Alcotest.(check bool) "well-typed accepted" true
    (compiles (E.Binop (E.Add, i8, E.Zext (i4, 8))))

let test_strict_inputs () =
  (* Without ~auto, undeclared names are compile-time errors... *)
  let b = P.create ~inputs:[ ("a", 8) ] () in
  (match P.root b (E.input "nope" 8) with
  | (_ : int) -> Alcotest.fail "expected Compile_error"
  | exception P.Compile_error _ -> ());
  (* ...and declared ones must be used at their declared width. *)
  let b = P.create ~inputs:[ ("a", 8) ] () in
  (match P.root b (E.input "a" 4) with
  | (_ : int) -> Alcotest.fail "expected width conflict"
  | exception P.Compile_error _ -> ());
  (* Duplicate defines are rejected. *)
  let b = P.create ~auto:true () in
  let (_ : int) = P.define b "x" (E.const_int ~width:4 1) in
  match P.define b "x" (E.const_int ~width:4 2) with
  | (_ : int) -> Alcotest.fail "expected duplicate-define error"
  | exception P.Compile_error _ -> ()

let test_run_errors () =
  let b = P.create ~inputs:[ ("a", 8) ] ~files:[ ("mem", 8) ] () in
  let slot =
    P.root b
      (E.Binop
         ( E.Add,
           E.input "a" 8,
           E.File_read { file = "mem"; data_width = 8; addr = E.input "a" 8 }
         ))
  in
  let plan = P.build b in
  (* Wrong input width at run time. *)
  let inst = P.instance plan in
  (match P.set inst (Option.get (P.input_slot plan "a")) (bv ~width:4 1) with
  | () -> Alcotest.fail "expected Run_error on width"
  | exception P.Run_error _ -> ());
  (* Unbound file. *)
  let inst = P.instance plan in
  P.set inst (Option.get (P.input_slot plan "a")) (bv ~width:8 1);
  (match P.run inst with
  | () -> Alcotest.fail "expected Run_error on unbound file"
  | exception P.Run_error _ -> ());
  (* Bound: runs, and the name view resolves. *)
  P.bind_file inst "mem" mem_at;
  P.run inst;
  Alcotest.(check bool) "result" true (B.width (P.get inst slot) = 8);
  Alcotest.(check bool) "read_name input" true
    (P.read_name inst "a" = Some (bv ~width:8 1))

let test_reset_rebind () =
  (* The instance-reuse contract behind compiled sessions: [reset]
     must erase everything the previous evaluation context could
     leak.  The two hazards are a stale input slot surviving into the
     next run and a stale file reader silently serving the previous
     context's data. *)
  let b = P.create ~inputs:[ ("a", 8) ] ~files:[ ("mem", 8) ] () in
  let k = P.define b "k" (E.const_int ~width:8 42) in
  let sum =
    P.root b
      (E.Binop
         ( E.Add,
           E.input "a" 8,
           E.File_read { file = "mem"; data_width = 8; addr = E.input "a" 8 }
         ))
  in
  let plan = P.build b in
  let a_slot = Option.get (P.input_slot plan "a") in
  let inst = P.instance plan in
  P.set inst a_slot (bv ~width:8 2);
  P.bind_file inst "mem" mem_at;
  P.run inst;
  Alcotest.(check bool) "first run" true
    (P.get inst sum = B.add (bv ~width:8 2) (mem_fun (bv ~width:8 2)));
  P.reset inst;
  (* Constants are reloaded... *)
  Alcotest.(check bool) "const reloaded" true (P.get inst k = bv ~width:8 42);
  (* ...the stale input slot is cleared rather than still holding 2... *)
  Alcotest.(check bool) "stale slot cleared" true
    (P.get inst a_slot <> bv ~width:8 2);
  (* ...and the stale file binding fails loudly instead of reading
     the previous context's table. *)
  P.set inst a_slot (bv ~width:8 3);
  (match P.run inst with
  | () -> Alcotest.fail "expected Run_error on stale file after reset"
  | exception P.Run_error _ -> ());
  (* Rebinding restores the full contract. *)
  P.bind_file inst "mem" mem_at;
  P.run inst;
  Alcotest.(check bool) "rebound run" true
    (P.get inst sum = B.add (bv ~width:8 3) (mem_fun (bv ~width:8 3)));
  (* bind_file without a reset replaces the reader in place — the
     rebind-only session path (new file table, same slots). *)
  let shifted a = B.add (mem_at a) (bv ~width:8 1) in
  P.bind_file inst "mem" shifted;
  P.run inst;
  Alcotest.(check bool) "replaced reader" true
    (P.get inst sum = B.add (bv ~width:8 3) (shifted 3))

let test_hash_consing () =
  (* (a + b) used three times: one add on the tape, not three. *)
  let a = E.input "a" 8 and b = E.input "b" 8 in
  let s = E.Binop (E.Add, a, b) in
  let e = E.Binop (E.Xor, E.Binop (E.Mul, s, s), s) in
  let builder = P.create ~auto:true () in
  let (_ : int) = P.root builder e in
  let plan = P.build builder in
  Alcotest.(check int) "tape length" 3 (P.n_instrs plan);
  (* Identical roots share the same slot. *)
  let builder = P.create ~auto:true () in
  let s1 = P.root builder s in
  let s2 = P.root builder (E.Binop (E.Add, a, b)) in
  Alcotest.(check int) "cse slot" s1 s2;
  let (_ : P.t) = P.build builder in
  ()

let test_define_resolution () =
  (* A define is visible to later expressions by name, like the
     simulator's ordered signal lists. *)
  let b = P.create ~inputs:[ ("x", 8) ] () in
  let (_ : int) =
    P.define b "double" (E.Binop (E.Add, E.input "x" 8, E.input "x" 8))
  in
  let quad =
    P.root b (E.Binop (E.Add, E.input "double" 8, E.input "double" 8))
  in
  let plan = P.build b in
  let inst = P.instance plan in
  P.set inst (Option.get (P.input_slot plan "x")) (bv ~width:8 5);
  P.run inst;
  Alcotest.(check int) "quad" 20 (B.to_int (P.get inst quad));
  Alcotest.(check bool) "define readable" true
    (P.read_name inst "double" = Some (bv ~width:8 10));
  Alcotest.(check bool) "slot name view" true
    (P.slot_name plan (Option.get (P.define_slot plan "double"))
    = Some "double")

let test_env_of_assoc_semantics () =
  (* First binding wins (List.assoc compatibility) and unknown names
     still raise, so Eval_error reporting is preserved. *)
  let env =
    Hw.Eval.env_of_assoc
      [ ("a", bv ~width:8 1); ("a", bv ~width:8 2) ]
  in
  Alcotest.(check int) "first binding wins" 1
    (B.to_int (Hw.Eval.eval env (E.input "a" 8)));
  match Hw.Eval.eval env (E.input "nope" 8) with
  | (_ : B.t) -> Alcotest.fail "expected Eval_error"
  | exception Hw.Eval.Eval_error _ -> ()

let () =
  Alcotest.run "plan"
    [
      ( "unit",
        [
          Alcotest.test_case "compile-time width errors" `Quick
            test_compile_errors;
          Alcotest.test_case "strict inputs" `Quick test_strict_inputs;
          Alcotest.test_case "run-time errors" `Quick test_run_errors;
          Alcotest.test_case "reset and rebind" `Quick test_reset_rebind;
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "define resolution" `Quick
            test_define_resolution;
          Alcotest.test_case "env_of_assoc semantics" `Quick
            test_env_of_assoc_semantics;
          Alcotest.test_case "62-bit edge table" `Quick test_edge_table;
        ] );
      ( "properties",
        List.map to_alcotest
          [ prop_plan_matches_interpreter; prop_plan_edges ] );
    ]
