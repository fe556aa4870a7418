(* Symbolic co-simulation: data consistency proved for all initial
   data values at once. *)

module S = Proof_engine.Symsim

let proved = function
  | S.Proved _ -> true
  | S.Mismatch _ | S.Control_depends_on_data _ | S.Stopped _ -> false

let check_proved name outcome =
  if not (proved outcome) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" S.pp_outcome outcome)

let toy ?(mode = Pipeline.Fwd_spec.Full) ?(impl = Hw.Circuits.Chain) () =
  Core.Toy.transform
    ~options:{ Pipeline.Fwd_spec.mode; impl }
    ~program:Core.Toy.default_program ()

let with_signal tr name e =
  {
    tr with
    Pipeline.Transform.signals =
      List.map
        (fun (n, e') -> if n = name then (n, e) else (n, e'))
        tr.Pipeline.Transform.signals;
  }

let dlx (p : Dlx.Progs.t) =
  Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
    ~program:(Dlx.Progs.program p)

let test_toy_all_data () =
  check_proved "toy chain" (S.check ~symbolic:[ "REG" ] ~instructions:6 (toy ()));
  check_proved "toy tree"
    (S.check ~symbolic:[ "REG" ] ~instructions:6 (toy ~impl:Hw.Circuits.Tree ()))

let test_toy_interlock_only () =
  check_proved "interlock"
    (S.check ~symbolic:[ "REG" ] ~instructions:6
       (toy ~mode:Pipeline.Fwd_spec.Interlock_only ()))

let test_default_symbolic_set () =
  (* Default: visible register files are symbolic. *)
  check_proved "defaults" (S.check ~instructions:4 (toy ()))

let elastic n =
  Core.Elastic.transform ~n
    ~program:(Core.Elastic.chain_program ~late:true ~length:8)
    ()

let test_elastic_depths () =
  List.iter
    (fun n ->
      check_proved
        (Printf.sprintf "elastic %d" n)
        (S.check ~symbolic:[ "REG" ] ~instructions:8 (elastic n)))
    [ 3; 5; 7 ]

let kernels () =
  [
    Dlx.Progs.hazard_dependent_chain 8;
    Dlx.Progs.hazard_load_use 4;
    Dlx.Progs.hazard_independent 8;
  ]

let test_dlx_kernels () =
  List.iter
    (fun (p : Dlx.Progs.t) ->
      check_proved p.Dlx.Progs.prog_name
        (S.check ~symbolic:[ "GPR" ]
           ~instructions:(min 10 p.Dlx.Progs.dyn_instructions)
           (dlx p)))
    (kernels ())

(* toy3 whose first operand skips the forwarding network and reads
   the register file. *)
let sabotaged () =
  with_signal (toy ()) "$g_1_srcA"
    (Hw.Expr.File_read
       {
         file = "REG";
         data_width = 16;
         addr = Hw.Expr.slice (Hw.Expr.input "IR.1" 16) ~hi:7 ~lo:4;
       })

let test_catches_sabotage () =
  match S.check ~symbolic:[ "REG" ] ~instructions:6 (sabotaged ()) with
  | S.Mismatch { register = "REG"; assignment; _ } ->
    (* The counterexample mentions concrete initial file entries. *)
    Alcotest.(check bool) "nonempty witness" true (assignment <> [])
  | o -> Alcotest.failf "expected a mismatch, got %a" S.pp_outcome o

let symbolic_branch_program () =
  let open Dlx.Asm in
  let open Dlx.Isa in
  Dlx.Progs.make "symbolic_branch"
    [ Insn (Addi (1, 0, 0)); Bnez_l (2, "skip"); Insn Nop;
      Insn (Addi (3, 0, 1)); Label "skip" ]

let test_symbolic_branch_proved () =
  (* A branch on a symbolic register is fine as long as the stall
     logic stays data-independent: the case split flows through the
     (symbolic) fetch stream and both paths are proved at once. *)
  check_proved "symbolic branch"
    (S.check ~symbolic:[ "GPR" ] ~instructions:5
       (dlx (symbolic_branch_program ())))

let symbolic_hazard_program () =
  (* Whether a load-use stall happens depends on a symbolic branch. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  Dlx.Progs.make ~data:[ (64, 7) ] "symbolic_hazard"
    [ Insn (Addi (1, 0, 256));
      Bnez_l (2, "skip");
      Insn Nop;
      Insn (Lw (5, 1, 0));       (* fall-through path only *)
      Label "skip";
      Insn (Add (6, 5, 5)) ]     (* load-use iff not taken *)

let test_data_dependent_interlock_split () =
  (* The checker forks Burch-Dill style on the stall decision and
     proves both paths. *)
  check_proved "split interlock"
    (S.check ~symbolic:[ "GPR" ] ~instructions:5
       (dlx (symbolic_hazard_program ())))

let test_path_budget_rejection () =
  (* With the path budget forced to one, the same program must be
     rejected explicitly instead of silently concretized. *)
  match
    S.check ~symbolic:[ "GPR" ] ~max_paths:1 ~instructions:5
      (dlx (symbolic_hazard_program ()))
  with
  | S.Control_depends_on_data _ -> ()
  | o -> Alcotest.failf "expected budget rejection, got %a" S.pp_outcome o

(* A machine that never finishes: toy3 with stage 1's data hazard
   tied to 1 stalls stage 1 forever.  The cycle driver deadlocks; a
   symbolic path stops at the liveness bound (88 cycles on three
   stages) with nothing retired, and is not a proof. *)
let stuck () = with_signal (toy ()) "$dhaz_stage_1" Hw.Expr.tru

let test_never_finishes_not_proved () =
  let stuck = stuck () in
  let r = Pipeline.Pipesem.run ~stop_after:6 stuck in
  Alcotest.(check bool) "the driver deadlocks" true
    (r.Pipeline.Pipesem.outcome = Pipeline.Pipesem.Deadlocked);
  Alcotest.(check int) "nothing retires" 0
    r.Pipeline.Pipesem.stats.Pipeline.Pipesem.retired;
  match S.check ~symbolic:[ "REG" ] ~instructions:6 stuck with
  | S.Stopped { cycle; retired; instructions } ->
    Alcotest.(check int) "stopped at the liveness bound" 88 cycle;
    Alcotest.(check int) "nothing retired" 0 retired;
    Alcotest.(check int) "of six" 6 instructions;
    Alcotest.(check bool) "printed as not proved" true
      (String.starts_with ~prefix:"NOT PROVED"
         (Format.asprintf "%a" S.pp_outcome
            (S.Stopped { cycle; retired; instructions })))
  | o -> Alcotest.failf "expected a stopped path, got %a" S.pp_outcome o

let unknown_register () =
  S.check ~symbolic:[ "nope" ] ~instructions:1 (Core.Toy.transform ~program:[] ())

let test_unknown_symbolic_register () =
  match unknown_register () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown register accepted"

(* ---------------- outcomes pinned at the bit-vector engine ---------------- *)

(* Every input the suites give [check], plus a few whose control
   depends on symbolic data, with the outcome text the engine printed
   when it blasted every value to BDDs.  Terms change how many BDD
   nodes a proof builds (the figure is masked) and nothing else:
   verdicts, path splits, counterexamples and raised exceptions stay. *)

(* Stage 1 also stalls while bit 0 of its first operand's register
   entry is set: a stall decision on symbolic data. *)
let data_stall tr =
  let bit0 =
    Hw.Expr.slice
      (Hw.Expr.File_read
         {
           file = "REG";
           data_width = 16;
           addr = Hw.Expr.slice (Hw.Expr.input "IR.1" 16) ~hi:7 ~lo:4;
         })
      ~hi:0 ~lo:0
  in
  let dhaz = List.assoc "$dhaz_stage_1" tr.Pipeline.Transform.signals in
  with_signal tr "$dhaz_stage_1" (Hw.Expr.( ||: ) dhaz bit0)

(* (family, key, run) *)
let corpus () =
  let reg = [ "REG" ] and gpr = [ "GPR" ] in
  let suite =
    [
      ("toy chain", fun () -> S.check ~symbolic:reg ~instructions:6 (toy ()));
      ( "toy tree",
        fun () ->
          S.check ~symbolic:reg ~instructions:6 (toy ~impl:Hw.Circuits.Tree ()) );
      ( "toy interlock-only",
        fun () ->
          S.check ~symbolic:reg ~instructions:6
            (toy ~mode:Pipeline.Fwd_spec.Interlock_only ()) );
      ("toy default set", fun () -> S.check ~instructions:4 (toy ()));
      ("sabotage", fun () -> S.check ~symbolic:reg ~instructions:6 (sabotaged ()));
      ( "never finishes",
        fun () -> S.check ~symbolic:reg ~instructions:6 (stuck ()) );
      ("unknown register", unknown_register);
      ( "symbolic branch",
        fun () ->
          S.check ~symbolic:gpr ~instructions:5
            (dlx (symbolic_branch_program ())) );
      ( "symbolic interlock split",
        fun () ->
          S.check ~symbolic:gpr ~instructions:5
            (dlx (symbolic_hazard_program ())) );
      ( "path budget",
        fun () ->
          S.check ~symbolic:gpr ~max_paths:1 ~instructions:5
            (dlx (symbolic_hazard_program ())) );
    ]
    @ List.map
        (fun n ->
          ( Printf.sprintf "elastic %d" n,
            fun () -> S.check ~symbolic:reg ~instructions:8 (elastic n) ))
        [ 3; 5; 7 ]
    @ List.map
        (fun (p : Dlx.Progs.t) ->
          ( "dlx " ^ p.Dlx.Progs.prog_name,
            fun () ->
              S.check ~symbolic:gpr
                ~instructions:(min 10 p.Dlx.Progs.dyn_instructions)
                (dlx p) ))
        (kernels ())
  in
  let splits =
    [
      ("toy3 data stall", fun () -> S.check ~instructions:6 (data_stall (toy ())));
      ( "toy3 data stall, 2 instructions",
        fun () -> S.check ~instructions:2 (data_stall (toy ())) );
      ( "toy3 data stall, stuck hit",
        fun () ->
          S.check ~instructions:6
            (with_signal (data_stall (toy ())) "$hit_1_srcA_2" Hw.Expr.fls) );
      ( "toy3 symbolic PC",
        fun () -> S.check ~symbolic:[ "PC"; "REG" ] ~instructions:3 (toy ()) );
      ( "toy3 symbolic PC, stuck hit",
        fun () ->
          S.check ~symbolic:[ "PC"; "REG" ] ~instructions:3
            (with_signal (toy ()) "$hit_1_srcB_2" Hw.Expr.fls) );
    ]
  in
  let variants =
    List.concat_map
      (fun (impl, iname) ->
        List.map
          (fun (mode, mname) ->
            ( Printf.sprintf "toy3 %s %s" iname mname,
              fun () -> S.check ~instructions:6 (toy ~mode ~impl ()) ))
          [ (Pipeline.Fwd_spec.Full, "full");
            (Pipeline.Fwd_spec.Interlock_only, "interlock-only") ])
      [ (Hw.Circuits.Chain, "chain"); (Hw.Circuits.Tree, "tree");
        (Hw.Circuits.Bus, "bus") ]
  in
  let machines =
    List.map
      (fun seed ->
        let module MG = Proof_engine.Machine_gen in
        ( Printf.sprintf "machine_gen %d" seed,
          fun () ->
            let p = MG.sample_params ~seed in
            let program = MG.random_program p ~length:12 in
            S.check ~symbolic:[ "RF" ] ~instructions:12
              (Pipeline.Transform.run ~hints:(MG.hints p)
                 (MG.machine p ~program)) ))
      [ 2; 5; 9; 14; 23; 31 ]
  in
  let mutants =
    List.concat_map
      (fun seed ->
        Fault.Mutate.enumerate ~seed (toy ())
        |> List.filter (fun (m : Fault.Mutate.mutant) ->
               m.Fault.Mutate.mut_structural)
        |> List.map (fun (m : Fault.Mutate.mutant) ->
               ( Printf.sprintf "mutant %d %s" seed m.Fault.Mutate.mut_id,
                 fun () ->
                   S.check ~max_paths:8 ~instructions:6 m.Fault.Mutate.mut_tr )))
      [ 0; 1; 2; 3 ]
  in
  [
    ("the suites' own inputs", suite);
    ("control on symbolic data", splits);
    ("six toy3 variants", variants);
    ("random machines", machines);
    ("toy3 structural mutants", mutants);
  ]

(* Recorded from the bit-vector engine (no node figures). *)
let pinned_outcomes =
  [
    ("toy chain",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy tree",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy interlock-only",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy default set",
     "proved for all data: 4 instructions, 256 symbolic variables, _ BDD nodes");
    ("sabotage",
     "MISMATCH at instruction 0 register REG under {REG[1]=65535, REG[2]=32767}");
    ("never finishes",
     "NOT PROVED: a path stopped at the liveness bound after 88 cycles, 0 of 6 instructions retired");
    ("unknown register",
     "RAISES Invalid_argument(\"Symsim: unknown symbolic register nope\")");
    ("symbolic branch",
     "proved for all data: 5 instructions, 1024 symbolic variables, _ BDD nodes");
    ("symbolic interlock split",
     "proved for all data: 5 instructions, 1024 symbolic variables, _ BDD nodes");
    ("path budget",
     "control depends on symbolic data at cycle 5 (path budget exhausted)");
    ("elastic 3",
     "proved for all data: 8 instructions, 256 symbolic variables, _ BDD nodes");
    ("elastic 5",
     "proved for all data: 8 instructions, 256 symbolic variables, _ BDD nodes");
    ("elastic 7",
     "proved for all data: 8 instructions, 256 symbolic variables, _ BDD nodes");
    ("dlx dep_chain_8",
     "proved for all data: 9 instructions, 1024 symbolic variables, _ BDD nodes");
    ("dlx load_use_4",
     "proved for all data: 9 instructions, 1024 symbolic variables, _ BDD nodes");
    ("dlx independent_8",
     "proved for all data: 8 instructions, 1024 symbolic variables, _ BDD nodes");
    ("toy3 data stall",
     "control depends on symbolic data at cycle 7 (path budget exhausted)");
    ("toy3 data stall, 2 instructions",
     "NOT PROVED: a path stopped at the liveness bound after 88 cycles, 0 of 2 instructions retired");
    ("toy3 data stall, stuck hit",
     "MISMATCH at instruction 4 register REG under {REG[0]=1, REG[1]=30, REG[2]=30, REG[3]=1, REG[4]=1, REG[5]=1, REG[6]=30, REG[7]=1}");
    ("toy3 symbolic PC",
     "proved for all data: 3 instructions, 264 symbolic variables, _ BDD nodes");
    ("toy3 symbolic PC, stuck hit",
     "MISMATCH at instruction 1 register REG under {PC=127, REG[0]=1}");
    ("toy3 chain full",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy3 chain interlock-only",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy3 tree full",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy3 tree interlock-only",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy3 bus full",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("toy3 bus interlock-only",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("machine_gen 2",
     "proved for all data: 12 instructions, 128 symbolic variables, _ BDD nodes");
    ("machine_gen 5",
     "proved for all data: 12 instructions, 256 symbolic variables, _ BDD nodes");
    ("machine_gen 9",
     "proved for all data: 12 instructions, 128 symbolic variables, _ BDD nodes");
    ("machine_gen 14",
     "proved for all data: 12 instructions, 32 symbolic variables, _ BDD nodes");
    ("machine_gen 23",
     "proved for all data: 12 instructions, 32 symbolic variables, _ BDD nodes");
    ("machine_gen 31",
     "proved for all data: 12 instructions, 64 symbolic variables, _ BDD nodes");
    ("mutant 0 hit:$hit_1_srcA_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 0 hit:$hit_1_srcA_2=1",
     "MISMATCH at instruction 0 register REG under {REG[2]=1}");
    ("mutant 0 dhaz:$dhaz_1_srcA=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 0 hit:$hit_1_srcB_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 0 hit:$hit_1_srcB_2=1",
     "MISMATCH at instruction 0 register REG under {REG[1]=1}");
    ("mutant 0 dhaz:$dhaz_1_srcB=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 1 hit:$hit_1_srcA_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 1 hit:$hit_1_srcA_2=1",
     "MISMATCH at instruction 0 register REG under {REG[2]=1}");
    ("mutant 1 dhaz:$dhaz_1_srcA=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 1 hit:$hit_1_srcB_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 1 hit:$hit_1_srcB_2=1",
     "MISMATCH at instruction 0 register REG under {REG[1]=1}");
    ("mutant 1 dhaz:$dhaz_1_srcB=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 2 hit:$hit_1_srcA_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 2 hit:$hit_1_srcA_2=1",
     "MISMATCH at instruction 0 register REG under {REG[2]=1}");
    ("mutant 2 dhaz:$dhaz_1_srcA=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 2 hit:$hit_1_srcB_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 2 hit:$hit_1_srcB_2=1",
     "MISMATCH at instruction 0 register REG under {REG[1]=1}");
    ("mutant 2 dhaz:$dhaz_1_srcB=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 3 hit:$hit_1_srcA_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 3 hit:$hit_1_srcA_2=1",
     "MISMATCH at instruction 0 register REG under {REG[2]=1}");
    ("mutant 3 dhaz:$dhaz_1_srcA=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
    ("mutant 3 hit:$hit_1_srcB_2=0",
     "MISMATCH at instruction 1 register REG under {REG[1]=1, REG[2]=1, REG[3]=1}");
    ("mutant 3 hit:$hit_1_srcB_2=1",
     "MISMATCH at instruction 0 register REG under {REG[1]=1}");
    ("mutant 3 dhaz:$dhaz_1_srcB=0",
     "proved for all data: 6 instructions, 256 symbolic variables, _ BDD nodes");
  ]

(* ", 37032 BDD nodes" -> ", _ BDD nodes" *)
let mask_nodes text =
  let suffix = " BDD nodes" in
  if not (String.ends_with ~suffix text) then text
  else
    let stop = String.length text - String.length suffix in
    let start = String.rindex_from text (stop - 1) ' ' + 1 in
    String.sub text 0 start ^ "_" ^ suffix

let outcome_text run =
  match run () with
  | o -> mask_nodes (Format.asprintf "%a" S.pp_outcome o)
  | exception e -> "RAISES " ^ Printexc.to_string e

let test_pinned cases () =
  let wrong =
    List.filter_map
      (fun (key, run) ->
        let got = outcome_text run in
        match List.assoc_opt key pinned_outcomes with
        | None -> Some (Printf.sprintf "%s: no pinned outcome (got %s)" key got)
        | Some want when want = got -> None
        | Some want ->
          Some (Printf.sprintf "%s:\n  want %s\n  got  %s" key want got))
      cases
  in
  if wrong <> [] then Alcotest.fail (String.concat "\n" wrong)

let test_every_pin_used () =
  let keys = List.concat_map (fun (_, cases) -> List.map fst cases) (corpus ()) in
  Alcotest.(check (list string)) "pinned keys"
    (List.sort compare (List.map fst pinned_outcomes))
    (List.sort compare keys)

let () =
  Alcotest.run "symsim"
    [
      ( "proofs",
        [
          Alcotest.test_case "toy for all data" `Quick test_toy_all_data;
          Alcotest.test_case "interlock-only" `Quick test_toy_interlock_only;
          Alcotest.test_case "default symbolic set" `Quick
            test_default_symbolic_set;
          Alcotest.test_case "elastic depths" `Quick test_elastic_depths;
          Alcotest.test_case "dlx kernels" `Slow test_dlx_kernels;
        ] );
      ( "detection",
        [
          Alcotest.test_case "sabotage caught" `Quick test_catches_sabotage;
          Alcotest.test_case "symbolic branch proved" `Quick
            test_symbolic_branch_proved;
          Alcotest.test_case "symbolic interlock split" `Slow
            test_data_dependent_interlock_split;
          Alcotest.test_case "path budget rejection" `Quick
            test_path_budget_rejection;
          Alcotest.test_case "a run that never finishes is not proved"
            `Quick test_never_finishes_not_proved;
          Alcotest.test_case "unknown register" `Quick
            test_unknown_symbolic_register;
        ] );
      ( "pinned",
        Alcotest.test_case "every pin has an input" `Quick test_every_pin_used
        :: List.map
             (fun (family, cases) ->
               Alcotest.test_case family `Quick (test_pinned cases))
             (corpus ()) );
    ]
