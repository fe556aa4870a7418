(* Integration tests of the DLX case study (paper §4.2): the prepared
   sequential machine against the golden model, and the transformed
   pipeline against both, across kernels, random programs, operating
   modes, external stalls and the speculation variants. *)

module P = Pipeline.Pipesem
module F = Pipeline.Fwd_spec
module Progs = Dlx.Progs
module SD = Dlx.Seq_dlx

let transform ?options ?(variant = SD.Base) (p : Progs.t) =
  SD.transform ?options ~data:p.Progs.data variant
    ~program:(Progs.program p)

let check_consistent ?ext ?options ?(variant = SD.Base) (p : Progs.t) =
  let tr = transform ?options ~variant p in
  let n = p.Progs.dyn_instructions in
  let reference =
    SD.ref_trace ~data:p.Progs.data variant ~program:(Progs.program p)
      ~instructions:n
  in
  let report = Proof_engine.Consistency.check ?ext ~max_instructions:n ~reference tr in
  if not (Proof_engine.Consistency.ok report) then
    Alcotest.failf "%s inconsistent: %s" p.Progs.prog_name
      (Format.asprintf "%a" Proof_engine.Consistency.pp_report report);
  report

(* ---------------- sequential machine vs golden model ---------------- *)

let test_seqsem_matches_refmodel () =
  List.iter
    (fun (p : Progs.t) ->
      let program = Progs.program p in
      let m = SD.machine ~data:p.Progs.data SD.Base ~program in
      let n = p.Progs.dyn_instructions in
      let seq = Machine.Seqsem.run ~max_instructions:n m in
      let refr = SD.ref_trace ~data:p.Progs.data SD.Base ~program ~instructions:n in
      for i = 0 to n do
        List.iter
          (fun (name, v) ->
            match List.assoc_opt name refr.Machine.Seqsem.spec_before.(i) with
            | Some v' ->
              if not (Machine.Value.equal v v') then
                Alcotest.failf "%s: instr %d register %s differs"
                  p.Progs.prog_name i name
            | None -> ())
          seq.Machine.Seqsem.spec_before.(i)
      done)
    (Progs.all_kernels
    @ List.map
        (fun seed ->
          Workload.Gen.generate ~seed ~length:40 Workload.Gen.memory_heavy)
        [ 3; 5; 11 ])

(* ---------------- copy-on-write reference trace ---------------- *)

let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

(* The oracle: a deep copy of the golden model's visible state, built
   afresh at every step and sharing nothing. *)
let deep_snapshot variant (s : Dlx.Refmodel.state) =
  let bv32 v = Hw.Bitvec.make ~width:32 v in
  let scalar v = Machine.Value.scalar (bv32 v) in
  let file a = Machine.Value.File (Array.map bv32 a) in
  let value = function
    | "DPC" -> scalar s.Dlx.Refmodel.dpc
    | "PC" -> scalar s.Dlx.Refmodel.pc
    | "GPR" -> file s.Dlx.Refmodel.gpr
    | "MEM" -> file s.Dlx.Refmodel.mem
    | "EPC" -> scalar s.Dlx.Refmodel.epc
    | "EDPC" -> scalar s.Dlx.Refmodel.edpc
    | "ECA" -> scalar s.Dlx.Refmodel.eca
    | "SR" -> Machine.Value.scalar (Hw.Bitvec.make ~width:1 s.Dlx.Refmodel.sr)
    | n -> Alcotest.failf "unexpected visible register %s" n
  in
  List.map (fun n -> (n, value n)) (SD.visible_names variant)

type cow_case = { cseed : int; kind : int; length : int }

let cow_program { cseed; kind; length } =
  let gen profile = Workload.Gen.generate ~seed:cseed ~length profile in
  match kind with
  | 0 -> (SD.Base, gen Workload.Gen.memory_heavy)
  | 1 -> (SD.Base, gen Workload.Gen.typical)
  | _ ->
    ( SD.With_interrupts { sisr = 8 },
      Workload.Gen.generate_with_interrupts ~seed:cseed ~length ~sisr:8
        Workload.Gen.memory_heavy )

let refmodel_config = function
  | SD.With_interrupts { sisr } -> { Dlx.Refmodel.with_interrupts = true; sisr }
  | SD.Base | SD.Branch_predict -> Dlx.Refmodel.default_config

(* The oracle run: a freshly created golden-model state stepped [n]
   times, with a deep snapshot before every step and after the last,
   and whether each step was a store. *)
let oracle variant ~data ~program n =
  let config = refmodel_config variant in
  let s = Dlx.Refmodel.create ~data ~program () in
  let snaps = Array.make (n + 1) [] and stores = Array.make n false in
  for i = 0 to n do
    snaps.(i) <- deep_snapshot variant s;
    if i < n then begin
      let word =
        s.Dlx.Refmodel.imem.(Dlx.Refmodel.word_index s.Dlx.Refmodel.dpc)
      in
      (stores.(i) <-
         match Dlx.Isa.decode word with
         | Some (Dlx.Isa.Sw _) -> true
         | Some _ | None -> false);
      Dlx.Refmodel.step ~config s
    end
  done;
  (snaps, stores)

(* Where a reference trace departs from the oracle's snapshots. *)
let oracle_mismatch (trace : Machine.Seqsem.trace) expected =
  let snaps = trace.Machine.Seqsem.spec_before in
  let rec step i =
    if i = Array.length expected then None
    else if List.map fst snaps.(i) <> List.map fst expected.(i) then
      Some (Printf.sprintf "step %d: register names differ" i)
    else
      match
        List.find_opt
          (fun ((_, v), (_, v')) -> not (Machine.Value.equal v v'))
          (List.combine snaps.(i) expected.(i))
      with
      | Some ((name, _), _) ->
        Some (Printf.sprintf "step %d: %s differs from the oracle" i name)
      | None -> step (i + 1)
  in
  if Array.length snaps <> Array.length expected then
    Some "trace length differs from the oracle"
  else step 0

let prop_cow_trace =
  QCheck.Test.make ~count:40
    ~name:"ref_trace = deep-copy oracle, MEM shared until a store"
    (QCheck.make
       ~print:(fun { cseed; kind; length } ->
         Printf.sprintf "QCHECK_SEED=%d seed=%d kind=%d length=%d" qcheck_seed
           cseed kind length)
       QCheck.Gen.(
         let* cseed = int_bound 100_000 in
         let* kind = int_bound 2 in
         let+ length = int_range 5 60 in
         { cseed; kind; length }))
    (fun case ->
      let variant, p = cow_program case in
      let program = Progs.program p and data = p.Progs.data in
      let n = p.Progs.dyn_instructions in
      let trace = SD.ref_trace ~data variant ~program ~instructions:n in
      let expected, stores = oracle variant ~data ~program n in
      let mem i = List.assoc "MEM" trace.Machine.Seqsem.spec_before.(i) in
      (* Step 0 starts from the image the pipelined machine is reset
         from, physically. *)
      if mem 0 != List.assoc "MEM" (SD.image ~data ~program ()) then
        QCheck.Test.fail_report "MEM at step 0 is not the image";
      Option.iter QCheck.Test.fail_report (oracle_mismatch trace expected);
      Array.iteri
        (fun i stored ->
          if (not stored) && mem i != mem (i + 1) then
            QCheck.Test.fail_reportf
              "step %d stored nothing but MEM was copied" i)
        stores;
      true)

(* [ref_trace] and [Progs.dyn_count] run on the domain's one
   golden-model state: a run right after a store-heavy one (which
   leaves data memory, registers and, on the interrupt machine, the
   exception registers dirty) must see exactly what a fresh state
   would. *)
let test_reused_state_leaks_nothing () =
  (* The interrupt machine's programs are wrapped around an ISR. *)
  let generate variant ~seed ~length profile =
    match variant with
    | SD.With_interrupts { sisr } ->
      Workload.Gen.generate_with_interrupts ~seed ~length ~sisr profile
    | SD.Base | SD.Branch_predict -> Workload.Gen.generate ~seed ~length profile
  in
  let dirty variant seed =
    let p = generate variant ~seed ~length:60 Workload.Gen.memory_heavy in
    ignore
      (SD.ref_trace ~data:p.Progs.data variant ~program:(Progs.program p)
         ~instructions:p.Progs.dyn_instructions)
  in
  List.iter
    (fun (name, variant) ->
      List.iter
        (fun seed ->
          let p = generate variant ~seed ~length:20 Workload.Gen.typical in
          let program = Progs.program p and data = p.Progs.data in
          let n = p.Progs.dyn_instructions in
          dirty variant (seed + 1000);
          let trace = SD.ref_trace ~data variant ~program ~instructions:n in
          match oracle_mismatch trace (fst (oracle variant ~data ~program n)) with
          | Some msg -> Alcotest.failf "%s, seed %d: %s" name seed msg
          | None -> ())
        [ 1; 2; 3; 4; 5 ])
    [ ("base", SD.Base); ("interrupts", SD.With_interrupts { sisr = 8 });
      ("branch prediction", SD.Branch_predict) ]

(* The oracle count: a freshly created golden-model state stepped to
   the halt loop. *)
let fresh_count (p : Progs.t) =
  let rec words acc = function
    | [] | Dlx.Asm.Label "$halt" :: _ -> acc
    | Dlx.Asm.Label _ :: rest -> words acc rest
    | _ :: rest -> words (acc + 1) rest
  in
  let halt = 4 * words 0 p.Progs.items in
  let s =
    Dlx.Refmodel.create ~data:p.Progs.data ~program:(Progs.program p) ()
  in
  while s.Dlx.Refmodel.dpc <> halt && s.Dlx.Refmodel.instret < 200_000 do
    Dlx.Refmodel.step s
  done;
  s.Dlx.Refmodel.instret

let test_generated_counts_fresh () =
  List.iter
    (fun (name, profile) ->
      for seed = 0 to 39 do
        let p = Workload.Gen.generate ~seed ~length:(5 + seed) profile in
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d" name seed)
          (fresh_count p) p.Progs.dyn_instructions
      done)
    [
      ("typical", Workload.Gen.typical);
      ("memory_heavy", Workload.Gen.memory_heavy);
      ("branch_heavy", Workload.Gen.branch_heavy ~taken_frac:0.5);
      ("alu_only", Workload.Gen.alu_only ~dependency_bias:0.5);
    ]

(* ---------------- pipelined consistency ---------------- *)

let test_kernels_consistent () =
  List.iter (fun p -> ignore (check_consistent p)) Progs.all_kernels

let test_kernels_consistent_tree_impl () =
  let options = { F.mode = F.Full; impl = Hw.Circuits.Tree } in
  List.iter
    (fun p -> ignore (check_consistent ~options p))
    [ Progs.fib 8; Progs.hazard_load_use 6; Progs.bubble_sort [ 3; 1; 2 ] ]

let test_kernels_consistent_interlock_only () =
  let options = { F.mode = F.Interlock_only; impl = Hw.Circuits.Chain } in
  List.iter
    (fun p -> ignore (check_consistent ~options p))
    [ Progs.fib 8; Progs.hazard_dependent_chain 10; Progs.memcpy 4 ]

let test_random_programs_consistent () =
  List.iter
    (fun seed ->
      let p = Workload.Gen.generate ~seed ~length:60 Workload.Gen.typical in
      ignore (check_consistent p))
    [ 1; 2; 3; 42; 99 ]

let test_random_memory_heavy_consistent () =
  List.iter
    (fun seed ->
      let p = Workload.Gen.generate ~seed ~length:60 Workload.Gen.memory_heavy in
      ignore (check_consistent p))
    [ 7; 8 ]

let test_ext_stalls_consistent () =
  let ext = Workload.Sweep.memory_wait_states ~every:5 ~wait:2 in
  List.iter
    (fun p -> ignore (check_consistent ~ext p))
    [ Progs.memcpy 6; Progs.hazard_load_use 6 ]

(* ---------------- performance shape ---------------- *)

let cycles ?options ?ext (p : Progs.t) =
  let tr = transform ?options p in
  let r = P.run ?ext ~stop_after:p.Progs.dyn_instructions tr in
  Alcotest.(check bool) "completed" true (r.P.outcome = P.Completed);
  r.P.stats.P.cycles

let test_dependent_chain_no_stalls () =
  (* Back-to-back ALU dependencies: forwarding sustains CPI 1 —
     n instructions need n + (pipeline fill) cycles. *)
  let p = Progs.hazard_dependent_chain 24 in
  Alcotest.(check int) "n + 4 cycles" (p.Progs.dyn_instructions + 4) (cycles p)

let test_load_use_one_stall_each () =
  (* Each load-use pair costs exactly one interlock cycle. *)
  let p = Progs.hazard_load_use 12 in
  Alcotest.(check int) "n + pairs + 4"
    (p.Progs.dyn_instructions + 12 + 4)
    (cycles p)

let test_interlock_only_much_slower () =
  let p = Progs.hazard_dependent_chain 24 in
  let full = cycles p in
  let inter =
    cycles ~options:{ F.mode = F.Interlock_only; impl = Hw.Circuits.Chain } p
  in
  Alcotest.(check bool) "at least 2x slower" true (inter >= 2 * full)

let test_needed_gating_avoids_phantom_stall () =
  (* The I-type destination field occupies the rs2 slot: without the
     operand-usage gating, [lw r2; addi r2, r1, 7] would stall on a
     phantom read of r2. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  let mk second =
    Progs.
      {
        prog_name = "phantom";
        items =
          [ Insn (Addi (1, 0, 256)); Insn (Lw (2, 1, 0)); Insn second ]
          @ Dlx.Asm.halt;
        data = [ (64, 5) ];
        dyn_instructions = 3;
      }
  in
  let phantom = cycles (mk (Addi (2, 1, 7))) in
  let neutral = cycles (mk (Addi (9, 1, 7))) in
  Alcotest.(check int) "no phantom stall" neutral phantom

let test_real_load_use_still_stalls () =
  let open Dlx.Asm in
  let open Dlx.Isa in
  let mk second =
    Progs.
      {
        prog_name = "real";
        items =
          [ Insn (Addi (1, 0, 256)); Insn (Lw (2, 1, 0)); Insn second ]
          @ Dlx.Asm.halt;
        data = [ (64, 5) ];
        dyn_instructions = 3;
      }
  in
  let dependent = cycles (mk (Add (3, 2, 2))) in
  let independent = cycles (mk (Add (3, 1, 1))) in
  Alcotest.(check int) "one stall" (independent + 1) dependent

(* ---------------- speculation variants ---------------- *)

let test_interrupt_variant_consistent () =
  let p = Progs.overflow_trap in
  let report =
    check_consistent ~variant:(SD.With_interrupts { sisr = 8 }) p
  in
  Alcotest.(check bool) "rollbacks happened" true
    (report.Proof_engine.Consistency.stats.P.rollbacks >= 3)

let test_interrupt_variant_plain_programs () =
  (* Programs without interrupts behave identically on the variant. *)
  List.iter
    (fun p ->
      ignore (check_consistent ~variant:(SD.With_interrupts { sisr = 8 }) p))
    [ Progs.fib 8; Progs.memcpy 4 ]

let test_bp_variant_consistent () =
  List.iter
    (fun p -> ignore (check_consistent ~variant:SD.Branch_predict p))
    [ Progs.fib 8; Progs.branch_heavy 6; Progs.bubble_sort [ 2; 1; 3 ] ]

let test_bp_costs_only_performance () =
  let p = Progs.branch_heavy 8 in
  let base = check_consistent ~variant:SD.Base p in
  let bp = check_consistent ~variant:SD.Branch_predict p in
  Alcotest.(check bool) "bp not faster" true
    (bp.Proof_engine.Consistency.stats.P.cycles
    >= base.Proof_engine.Consistency.stats.P.cycles);
  Alcotest.(check bool) "bp rolled back" true
    (bp.Proof_engine.Consistency.stats.P.rollbacks > 0)

let test_bp_random_consistent () =
  List.iter
    (fun seed ->
      let p =
        Workload.Gen.generate ~seed ~length:50
          (Workload.Gen.branch_heavy ~taken_frac:0.7)
      in
      ignore (check_consistent ~variant:SD.Branch_predict p))
    [ 11; 12 ]

(* ---------------- directed edge cases ---------------- *)

let directed ?(data = []) name items =
  Dlx.Progs.make ~data name items

let test_jal_link_forwarding () =
  (* jal writes r31 via the link path through C; using r31 in the very
     next instructions must forward correctly. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  let p =
    directed "jal_fwd"
      [
        Jal_l "sub";
        Insn Nop;
        (* the return lands here (link = 8) and skips the subroutine *)
        J_l "end";
        Insn (Addi (10, 0, 99));
        Label "sub";
        Insn (Addi (4, 31, 0));   (* r4 := link, forwarded *)
        Insn (Add (5, 31, 31));
        Insn (Jr 31);
        Insn Nop;
        Label "end";
      ]
  in
  ignore (check_consistent p)

let test_call_return () =
  let open Dlx.Asm in
  let open Dlx.Isa in
  let p =
    directed "call_ret"
      [
        Insn (Addi (1, 0, 3));
        Jal_l "double";
        Insn Nop;
        Insn (Addi (2, 1, 0));  (* after return: r2 := 6 *)
        J_l "end";
        Insn Nop;
        Label "double";
        Insn (Add (1, 1, 1));
        Insn (Jr 31);
        Insn Nop;
        Label "end";
      ]
  in
  let report = check_consistent p in
  ignore report

let test_branch_on_loaded_value () =
  (* beqz on a just-loaded register: the branch condition is a
     forwarded operand with a load-use interlock. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  let p =
    directed ~data:[ (64, 0); (65, 7) ] "beqz_on_load"
      [
        Insn (Addi (1, 0, 256));
        Insn (Lw (2, 1, 0));   (* 0 *)
        Bnez_l (2, "wrong");
        Insn Nop;
        Insn (Lw (3, 1, 4));   (* 7 *)
        Bnez_l (3, "right");
        Insn Nop;
        Label "wrong";
        Insn (Addi (9, 0, 1)); (* must not execute *)
        Label "right";
        Insn (Addi (10, 0, 2));
      ]
  in
  ignore (check_consistent p)

let test_store_data_forwarding () =
  (* The stored value and the store address are both forwarded
     operands. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  let p =
    directed "store_fwd"
      [
        Insn (Addi (1, 0, 256));
        Insn (Addi (2, 0, 1234));
        Insn (Sw (1, 2, 0));        (* data forwarded from EX *)
        Insn (Addi (3, 1, 4));
        Insn (Sw (3, 2, 0));        (* address forwarded *)
        Insn (Lw (4, 1, 4));
      ]
  in
  ignore (check_consistent p)

let test_ext_stall_during_forwarding () =
  (* Memory wait states while a load result is being forwarded: the
     taint term must hold the consumer until the stage can complete. *)
  let ext = Workload.Sweep.memory_wait_states ~every:3 ~wait:1 in
  List.iter
    (fun p -> ignore (check_consistent ~ext p))
    [ Progs.hazard_load_use 8; Progs.bubble_sort [ 5; 2; 4; 1 ] ]

let test_random_interrupt_programs () =
  List.iter
    (fun seed ->
      let p =
        Workload.Gen.generate_with_interrupts ~seed ~length:60 ~sisr:8
          Workload.Gen.typical
      in
      let report =
        check_consistent ~variant:(SD.With_interrupts { sisr = 8 }) p
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d rolled back" seed)
        true
        (report.Proof_engine.Consistency.stats.P.rollbacks > 0))
    [ 1; 2; 3; 4; 5 ]

let test_interrupt_during_hazard () =
  (* An overflow retiring while a younger load-use pair is stalled. *)
  let open Dlx.Asm in
  let open Dlx.Isa in
  let p =
    Dlx.Progs.make
      ~config:{ Dlx.Refmodel.with_interrupts = true; sisr = 8 }
      ~data:[ (64, 5) ]
      "intr_during_stall"
      [
        J_l "main";
        Insn Nop;
        Label "isr";
        Insn Rfe;
        Label "main";
        Insn (Lhi (1, 0x7FFF));
        Insn (Ori (1, 1, 0xFFFF));
        Insn (Addi (9, 0, 256));
        Insn (Add (2, 1, 1));   (* overflow resolving in WB... *)
        Insn (Lw (3, 9, 0));    (* ...while this load-use pair *)
        Insn (Add (4, 3, 3));   (* stalls in decode *)
        Insn (Addi (5, 0, 7));
      ]
  in
  ignore (check_consistent ~variant:(SD.With_interrupts { sisr = 8 }) p)

let () =
  Alcotest.run "dlx"
    [
      ( "sequential machine",
        [
          Alcotest.test_case "seqsem = refmodel on kernels" `Slow
            test_seqsem_matches_refmodel;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| qcheck_seed |])
            prop_cow_trace;
          Alcotest.test_case "a reused golden model leaks nothing" `Quick
            test_reused_state_leaks_nothing;
          Alcotest.test_case "generated counts = fresh-state counts" `Quick
            test_generated_counts_fresh;
        ] );
      ( "pipelined consistency",
        [
          Alcotest.test_case "kernels" `Slow test_kernels_consistent;
          Alcotest.test_case "tree impl" `Quick test_kernels_consistent_tree_impl;
          Alcotest.test_case "interlock only" `Quick
            test_kernels_consistent_interlock_only;
          Alcotest.test_case "random programs" `Slow
            test_random_programs_consistent;
          Alcotest.test_case "memory heavy" `Quick
            test_random_memory_heavy_consistent;
          Alcotest.test_case "external stalls" `Quick test_ext_stalls_consistent;
        ] );
      ( "performance shape",
        [
          Alcotest.test_case "dependent chain CPI 1" `Quick
            test_dependent_chain_no_stalls;
          Alcotest.test_case "load-use stalls once" `Quick
            test_load_use_one_stall_each;
          Alcotest.test_case "interlock-only slowdown" `Quick
            test_interlock_only_much_slower;
          Alcotest.test_case "needed gating" `Quick
            test_needed_gating_avoids_phantom_stall;
          Alcotest.test_case "real load-use stalls" `Quick
            test_real_load_use_still_stalls;
        ] );
      ( "directed edge cases",
        [
          Alcotest.test_case "jal link forwarding" `Quick
            test_jal_link_forwarding;
          Alcotest.test_case "call / return" `Quick test_call_return;
          Alcotest.test_case "branch on load" `Quick
            test_branch_on_loaded_value;
          Alcotest.test_case "store forwarding" `Quick
            test_store_data_forwarding;
          Alcotest.test_case "ext during forwarding" `Quick
            test_ext_stall_during_forwarding;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "interrupts consistent" `Quick
            test_interrupt_variant_consistent;
          Alcotest.test_case "random interrupt programs" `Slow
            test_random_interrupt_programs;
          Alcotest.test_case "interrupt during stall" `Quick
            test_interrupt_during_hazard;
          Alcotest.test_case "variant on plain programs" `Quick
            test_interrupt_variant_plain_programs;
          Alcotest.test_case "branch prediction consistent" `Quick
            test_bp_variant_consistent;
          Alcotest.test_case "bp performance only" `Quick
            test_bp_costs_only_performance;
          Alcotest.test_case "bp random programs" `Slow test_bp_random_consistent;
        ] );
    ]
