(* Symbolic co-simulation: data consistency proved for all initial
   data values at once. *)

module S = Proof_engine.Symsim

let proved = function
  | S.Proved _ -> true
  | S.Mismatch _ | S.Control_depends_on_data _ | S.Stopped _ -> false

let check_proved name outcome =
  if not (proved outcome) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" S.pp_outcome outcome)

let test_toy_all_data () =
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  check_proved "toy chain" (S.check ~symbolic:[ "REG" ] ~instructions:6 tr);
  let tree =
    Core.Toy.transform
      ~options:{ Pipeline.Fwd_spec.mode = Pipeline.Fwd_spec.Full; impl = Hw.Circuits.Tree }
      ~program:Core.Toy.default_program ()
  in
  check_proved "toy tree" (S.check ~symbolic:[ "REG" ] ~instructions:6 tree)

let test_toy_interlock_only () =
  let tr =
    Core.Toy.transform
      ~options:{ Pipeline.Fwd_spec.mode = Pipeline.Fwd_spec.Interlock_only;
                 impl = Hw.Circuits.Chain }
      ~program:Core.Toy.default_program ()
  in
  check_proved "interlock" (S.check ~symbolic:[ "REG" ] ~instructions:6 tr)

let test_default_symbolic_set () =
  (* Default: visible register files are symbolic. *)
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  check_proved "defaults" (S.check ~instructions:4 tr)

let test_elastic_depths () =
  List.iter
    (fun n ->
      let tr =
        Core.Elastic.transform ~n
          ~program:(Core.Elastic.chain_program ~late:true ~length:8)
          ()
      in
      check_proved
        (Printf.sprintf "elastic %d" n)
        (S.check ~symbolic:[ "REG" ] ~instructions:8 tr))
    [ 3; 5; 7 ]

let test_dlx_kernels () =
  List.iter
    (fun (p : Dlx.Progs.t) ->
      let tr =
        Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
          ~program:(Dlx.Progs.program p)
      in
      check_proved p.Dlx.Progs.prog_name
        (S.check ~symbolic:[ "GPR" ]
           ~instructions:(min 10 p.Dlx.Progs.dyn_instructions)
           tr))
    [
      Dlx.Progs.hazard_dependent_chain 8;
      Dlx.Progs.hazard_load_use 4;
      Dlx.Progs.hazard_independent 8;
    ]

let test_catches_sabotage () =
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  let bad =
    {
      tr with
      Pipeline.Transform.signals =
        List.map
          (fun (n, e) ->
            if n = "$g_1_srcA" then
              ( n,
                Hw.Expr.File_read
                  {
                    file = "REG";
                    data_width = 16;
                    addr = Hw.Expr.slice (Hw.Expr.input "IR.1" 16) ~hi:7 ~lo:4;
                  } )
            else (n, e))
          tr.Pipeline.Transform.signals;
    }
  in
  match S.check ~symbolic:[ "REG" ] ~instructions:6 bad with
  | S.Mismatch { register = "REG"; assignment; _ } ->
    (* The counterexample mentions concrete initial file entries. *)
    Alcotest.(check bool) "nonempty witness" true (assignment <> [])
  | o -> Alcotest.failf "expected a mismatch, got %a" S.pp_outcome o

let test_symbolic_branch_proved () =
  (* A branch on a symbolic register is fine as long as the stall
     logic stays data-independent: the case split flows through the
     (symbolic) fetch stream and both paths are proved at once. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  let p =
    Dlx.Progs.make "symbolic_branch"
      [ Insn (Addi (1, 0, 0)); Bnez_l (2, "skip"); Insn Nop;
        Insn (Addi (3, 0, 1)); Label "skip" ]
  in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p)
  in
  check_proved "symbolic branch" (S.check ~symbolic:[ "GPR" ] ~instructions:5 tr)

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
  let p = symbolic_hazard_program () in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p)
  in
  check_proved "split interlock" (S.check ~symbolic:[ "GPR" ] ~instructions:5 tr)

let test_path_budget_rejection () =
  (* With the path budget forced to one, the same program must be
     rejected explicitly instead of silently concretized. *)
  let p = symbolic_hazard_program () in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p)
  in
  match S.check ~symbolic:[ "GPR" ] ~max_paths:1 ~instructions:5 tr with
  | S.Control_depends_on_data _ -> ()
  | o -> Alcotest.failf "expected budget rejection, got %a" S.pp_outcome o

(* A machine that never finishes: toy3 with stage 1's data hazard
   tied to 1 stalls stage 1 forever.  The cycle driver deadlocks; a
   symbolic path stops at the liveness bound (88 cycles on three
   stages) with nothing retired, and is not a proof. *)
let test_never_finishes_not_proved () =
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  let stuck =
    {
      tr with
      Pipeline.Transform.signals =
        List.map
          (fun (n, e) -> if n = "$dhaz_stage_1" then (n, Hw.Expr.tru) else (n, e))
          tr.Pipeline.Transform.signals;
    }
  in
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

let test_unknown_symbolic_register () =
  let tr = Core.Toy.transform ~program:[] () in
  match S.check ~symbolic:[ "nope" ] ~instructions:1 tr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown register accepted"

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
    ]
