(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) and times the core computation of
   each experiment with Bechamel.

   Experiments:
     T1  Table 1    sequential round-robin scheduling
     F1  Figure 1   register-file write interface
     F2  Figure 2   generated forwarding hardware for the 5-stage DLX
     C1  §4.2       case study: pipelined DLX correctness + CPI
     S1  §5         speculation: branch prediction and precise interrupts
     P1  §6         generated proof obligations, discharged
     P2  §6/rel.wk. symbolic proofs: BDD equivalence + co-simulation
     E3  §4.2       mux chain vs find-first-one + balanced tree
     E4  (implicit) sequential vs pipelined speedup
     E5  §4         forwarding vs interlock-only
     E6  §5         branch prediction CPI sweep
     E7  §4.2       pipeline-depth sweep on the parametric machine
     E8  §3         external stalls: memory wait-state sweep
     E9  step 1     re-partitioning: where to split the DLX *)

let section id title =
  Format.printf "@.==================================================@.";
  Format.printf "%s: %s@." id title;
  Format.printf "==================================================@."

(* Machine-readable results, written to BENCH_last.json (scratch) at
   the end of the run and re-read through the parser as a self-check.
   [--rebaseline] retargets the committed BENCH_pipeline.json — the
   only way the baseline is ever rewritten. *)
let export_entries : Obs.Export.entry list ref = ref []
let add_entry e = export_entries := e :: !export_entries

let export_path = ref "BENCH_last.json"

let write_export () =
  let entries = List.rev !export_entries in
  Obs.Export.write_file ~path:!export_path entries;
  match Obs.Export.read_file ~path:!export_path with
  | Error msg ->
    Format.printf "BENCH export does NOT round-trip: %s@." msg;
    exit 1
  | Ok back ->
    assert (back = entries);
    Format.printf "@.wrote %s (%d entries, round-trip checked)@." !export_path
      (List.length entries)

(* ------------------------------------------------------------------ *)
(* T1: Table 1                                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1" "Table 1 - sequential scheduling of a 3-stage pipeline";
  let wave = Machine.Seqsem.ue_table ~n_stages:3 ~cycles:9 in
  Format.printf "%a" Hw.Wave.pp wave;
  Format.printf
    "(paper: ue_0, ue_1, ue_2 enabled round robin; matches exactly)@."

(* ------------------------------------------------------------------ *)
(* F1: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "F1" "Figure 1 - register file write interface (alpha = 2)";
  (* A file of four registers: the write needs Din (f^k_R), the write
     address Aw (f^k_Rwa, alpha = 2 bits) and the write enable
     (f^k_Rwe), gated with the update enable. *)
  let open Hw.Expr in
  let din = input "Din" 8 in
  let aw = input "Aw" 2 in
  let we = ( &&: ) (input "f_k_Rwe" 1) (input "ue_k" 1) in
  Format.printf "register file R0..R3 (four registers, alpha = 2):@.";
  Format.printf "  Din (data in)      = %a  (from f_k)@." Hw.Verilog.pp_expr din;
  Format.printf "  Aw  (write address)= %a  (from f_k_Rwa, %d bits)@."
    Hw.Verilog.pp_expr aw (width aw);
  Format.printf "  we  (write enable) = %a  (ce = f_k_Rwe AND ue_k)@."
    Hw.Verilog.pp_expr we;
  let cost =
    Hw.Cost.of_expr
      (File_read { file = "R"; data_width = 8; addr = input "Ar" 2 })
  in
  Format.printf "  read port cost: %a@." Hw.Cost.pp cost;
  (* The same structure as used by the toy machine's REG write. *)
  let m = Core.Toy.machine ~program:Core.Toy.default_program in
  match Machine.Spec.write_to m "REG" with
  | Some (k, w) ->
    Format.printf
      "toy machine instance: stage %d writes REG with Din = %a, Aw = %a@." k
      Hw.Verilog.pp_expr w.Machine.Spec.value
      (Format.pp_print_option Hw.Verilog.pp_expr)
      w.Machine.Spec.wr_addr
  | None -> ()

(* ------------------------------------------------------------------ *)
(* F2: Figure 2                                                        *)
(* ------------------------------------------------------------------ *)

let dlx_transform ?options ?(variant = Dlx.Seq_dlx.Base) (p : Dlx.Progs.t) =
  Dlx.Seq_dlx.transform ?options ~data:p.Dlx.Progs.data variant
    ~program:(Dlx.Progs.program p)

let figure2 () =
  section "F2" "Figure 2 - generated forwarding hardware for the 5-stage DLX";
  let tr = dlx_transform (Dlx.Progs.fib 10) in
  Format.printf "%a" Pipeline.Report.pp_inventory tr;
  Format.printf
    "@.(paper figure 2: per GPR operand, hit signals for stages 2..4,@.";
  Format.printf
    " one =? tester each against GPRwa.2/.3/.4 gated by full_2/3/4,@.";
  Format.printf
    " a mux chain over C:2 / C:3 / Din and the GPR read port - the@.";
  Format.printf
    " generated structure above matches: 3 hits, 3 testers, 3 muxes.)@.";
  (* Also count the forwarding registers and valid bits. *)
  let qv =
    List.filter
      (fun (r : Machine.Spec.register) ->
        String.length r.Machine.Spec.reg_name >= 4
        && String.sub r.Machine.Spec.reg_name 0 4 = "$Qv_")
      tr.Pipeline.Transform.machine.Machine.Spec.registers
  in
  Format.printf "synthesized valid bits (Qv): %s@."
    (String.concat ", "
       (List.map
          (fun (r : Machine.Spec.register) -> r.Machine.Spec.reg_name)
          qv))

(* ------------------------------------------------------------------ *)
(* C1: the case study                                                  *)
(* ------------------------------------------------------------------ *)

let sim_kernel ?options ?(variant = Dlx.Seq_dlx.Base) (p : Dlx.Progs.t) =
  let config =
    {
      Workload.Sweep.default with
      Workload.Sweep.variant;
      options =
        (match options with
        | Some o -> o
        | None -> Pipeline.Fwd_spec.default_options);
    }
  in
  Workload.Sweep.sim_of_program ~config p

let run_kernel ?options ?variant (p : Dlx.Progs.t) =
  let sim = sim_kernel ?options ?variant p in
  let report = Workload.Sim.verify sim in
  ( report,
    Workload.Sim.stats_row ~label:p.Dlx.Progs.prog_name sim
      report.Proof_engine.Consistency.stats )

let case_study ?(kernels = Dlx.Progs.all_kernels) () =
  section "C1" "Case study - pipelined DLX: correctness and CPI";
  let rows =
    List.map
      (fun p ->
        let sim = sim_kernel p in
        let report = Workload.Sim.verify sim in
        let row =
          Workload.Sim.stats_row ~label:p.Dlx.Progs.prog_name sim
            report.Proof_engine.Consistency.stats
        in
        if not (Proof_engine.Consistency.ok report) then begin
          Format.printf "INCONSISTENT on %s!@." p.Dlx.Progs.prog_name;
          exit 1
        end;
        (* CPI breakdown via hazard attribution for the export; the
           attribution run shares the kernel's compiled plan. *)
        let _, summary = Workload.Sim.attribute sim in
        let d = Obs.Hazard.decompose summary in
        add_entry
          (Obs.Export.entry
             ~cpi:row.Workload.Stats.cpi
             ~instructions:row.Workload.Stats.instructions
             ~cycles:row.Workload.Stats.cycles
             ~breakdown:d.Obs.Hazard.terms
             ("C1." ^ p.Dlx.Progs.prog_name));
        row)
      kernels
  in
  Format.printf "%a" Workload.Stats.pp_table rows;
  Format.printf "geomean CPI %.3f (sequential machine: CPI = 5.000)@."
    (Workload.Stats.geomean_cpi rows);
  Format.printf "all kernels data consistent and live.@."

(* ------------------------------------------------------------------ *)
(* S1: speculation                                                     *)
(* ------------------------------------------------------------------ *)

let speculation () =
  section "S1"
    "Speculation (paper 5) - wrong guesses cost cycles, never results";
  Format.printf "branch prediction (sequential-fetch guess in stage 0):@.";
  Format.printf "  %-16s %10s %14s %10s@." "kernel" "base CPI" "predicted CPI"
    "rollbacks";
  List.iter
    (fun p ->
      let rb, base = run_kernel p in
      let rp, bp = run_kernel ~variant:Dlx.Seq_dlx.Branch_predict p in
      assert (Proof_engine.Consistency.ok rb && Proof_engine.Consistency.ok rp);
      Format.printf "  %-16s %10.2f %14.2f %10d@." p.Dlx.Progs.prog_name
        base.Workload.Stats.cpi bp.Workload.Stats.cpi
        bp.Workload.Stats.rollbacks)
    [ Dlx.Progs.fib 10; Dlx.Progs.branch_heavy 8; Dlx.Progs.memcpy 8 ];
  Format.printf
    "@.precise interrupts (speculate: no interrupt; resolve in WB):@.";
  let p = Dlx.Progs.overflow_trap in
  let report, row =
    run_kernel ~variant:(Dlx.Seq_dlx.With_interrupts { sisr = 8 }) p
  in
  assert (Proof_engine.Consistency.ok report);
  Format.printf
    "  %s: %d instructions, %d cycles, %d rollbacks (JISR), consistent@."
    p.Dlx.Progs.prog_name row.Workload.Stats.instructions
    row.Workload.Stats.cycles row.Workload.Stats.rollbacks

(* ------------------------------------------------------------------ *)
(* P1: the generated proof                                             *)
(* ------------------------------------------------------------------ *)

let proof () =
  section "P1" "Generated proof (paper 6) - obligations and discharge";
  let p = Dlx.Progs.fib 10 in
  let tr = dlx_transform p in
  let reference =
    Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p) ~instructions:p.Dlx.Progs.dyn_instructions
  in
  let obs =
    Proof_engine.Obligation.discharge_all
      ~max_instructions:p.Dlx.Progs.dyn_instructions ~reference tr
  in
  Format.printf "%a" Proof_engine.Obligation.pp obs;
  Format.printf "all discharged: %b@."
    (Proof_engine.Obligation.all_discharged obs);
  let theory = Proof_engine.Pvs_gen.theory tr obs in
  Format.printf "PVS theory: %d lines (emit with `pipegen proof dlx5`)@."
    (List.length (String.split_on_char '\n' theory))

(* ------------------------------------------------------------------ *)
(* P2: symbolic verification                                           *)
(* ------------------------------------------------------------------ *)

let symbolic_proofs () =
  section "P2" "Symbolic proofs - BDD equivalence and co-simulation";
  (* The generated DLX selection networks, chain vs tree, for every
     input valuation. *)
  let p = Dlx.Progs.fib 5 in
  let g impl =
    let tr =
      Dlx.Seq_dlx.transform
        ~options:{ Pipeline.Fwd_spec.mode = Pipeline.Fwd_spec.Full; impl }
        ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
        ~program:(Dlx.Progs.program p)
    in
    List.assoc "$g_1_GPRa" tr.Pipeline.Transform.signals
  in
  Format.printf "  DLX GPRa network, chain vs tree: %a@."
    Proof_engine.Equiv.pp_result
    (Proof_engine.Equiv.check (g Hw.Circuits.Chain) (g Hw.Circuits.Tree));
  (* Symbolic co-simulation: all initial data at once. *)
  let sym label symbolic instructions tr =
    Format.printf "  %-26s %a@." label Proof_engine.Symsim.pp_outcome
      (Proof_engine.Symsim.check ~symbolic ~instructions tr)
  in
  sym "toy3, all 2^256 states:" [ "REG" ] 6
    (Core.Toy.transform ~program:Core.Toy.default_program ());
  sym "elastic n=6, late chain:" [ "REG" ] 8
    (Core.Elastic.transform ~n:6
       ~program:(Core.Elastic.chain_program ~late:true ~length:8)
       ());
  let k = Dlx.Progs.hazard_dependent_chain 8 in
  sym "dlx5, all 2^1024 GPRs:" [ "GPR" ] 9
    (Dlx.Seq_dlx.transform ~data:k.Dlx.Progs.data Dlx.Seq_dlx.Base
       ~program:(Dlx.Progs.program k));
  Format.printf
    "(per-retirement data consistency established for every initial@.";
  Format.printf
    " register-file content simultaneously - the symbolic-simulation@.";
  Format.printf " style of the related work the paper cites.)@."

(* ------------------------------------------------------------------ *)
(* E3: mux chain vs balanced tree                                      *)
(* ------------------------------------------------------------------ *)

let mux_sweep () =
  section "E3"
    "Forwarding mux structures - linear chain vs find-first-one + tree";
  let points =
    Pipeline.Mux_impl.sweep ~depths:[ 2; 3; 4; 6; 8; 12; 16; 24; 32 ]
      ~data_width:32
  in
  Format.printf "%a" Pipeline.Mux_impl.pp_sweep points;
  Format.printf
    "(paper 4.2: \"this hardware gets slow with larger pipelines.  With@.";
  Format.printf
    " larger pipelines, one can use a find first one circuit and a@.";
  Format.printf
    " balanced tree of multiplexers\" - the chain depth grows linearly,@.";
  Format.printf " the tree depth logarithmically; crossover near 4 sources.)@."

(* ------------------------------------------------------------------ *)
(* E4: sequential vs pipelined                                         *)
(* ------------------------------------------------------------------ *)

let speedup () =
  section "E4" "Sequential vs pipelined DLX - the point of pipelining";
  Format.printf "  %-16s %8s %12s %12s %8s@." "kernel" "instr" "seq cycles"
    "pipe cycles" "speedup";
  let speedups =
    List.map
      (fun p ->
        let _, row = run_kernel p in
        let seq_cycles = 5 * row.Workload.Stats.instructions in
        let s =
          float_of_int seq_cycles /. float_of_int row.Workload.Stats.cycles
        in
        Format.printf "  %-16s %8d %12d %12d %8.2f@." p.Dlx.Progs.prog_name
          row.Workload.Stats.instructions seq_cycles row.Workload.Stats.cycles
          s;
        s)
      Dlx.Progs.all_kernels
  in
  let geo =
    exp
      (List.fold_left (fun a s -> a +. log s) 0.0 speedups
      /. float_of_int (List.length speedups))
  in
  Format.printf "geomean speedup: %.2fx (ideal for 5 stages: 5.00x)@." geo

(* ------------------------------------------------------------------ *)
(* E5: forwarding vs interlock-only                                    *)
(* ------------------------------------------------------------------ *)

let interlock_only_options =
  {
    Pipeline.Fwd_spec.mode = Pipeline.Fwd_spec.Interlock_only;
    impl = Hw.Circuits.Chain;
  }

let forwarding_value () =
  section "E5" "Forwarding vs interlock-only (stall-only baseline)";
  Format.printf "  %-16s %10s %14s@." "kernel" "fwd CPI" "interlock CPI";
  List.iter
    (fun p ->
      let _, fwd = run_kernel p in
      let _, il = run_kernel ~options:interlock_only_options p in
      Format.printf "  %-16s %10.2f %14.2f@." p.Dlx.Progs.prog_name
        fwd.Workload.Stats.cpi il.Workload.Stats.cpi)
    Dlx.Progs.all_kernels;
  Format.printf "@.dependency-bias sweep (random ALU programs, length 60):@.";
  Format.printf "  %-6s %10s %14s@." "bias" "fwd CPI" "interlock CPI";
  List.iter
    (fun bias ->
      let p =
        Workload.Gen.generate ~seed:3 ~length:60
          (Workload.Gen.alu_only ~dependency_bias:bias)
      in
      let fwd = Workload.Sweep.run_program p in
      let il =
        Workload.Sweep.run_program
          ~config:
            {
              Workload.Sweep.default with
              Workload.Sweep.options = interlock_only_options;
            }
          p
      in
      Format.printf "  %-6.2f %10.2f %14.2f@." bias fwd.Workload.Stats.cpi
        il.Workload.Stats.cpi)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

(* ------------------------------------------------------------------ *)
(* E6: branch prediction sweep                                         *)
(* ------------------------------------------------------------------ *)

let branch_sweep () =
  section "E6" "Branch prediction - CPI vs fraction of taken branches";
  Format.printf "  %-12s %12s %16s %10s@." "taken frac" "base CPI"
    "predicted CPI" "rollbacks";
  List.iter
    (fun tf ->
      let p =
        Workload.Gen.generate ~seed:9 ~length:80
          (Workload.Gen.branch_heavy ~taken_frac:tf)
      in
      let base = Workload.Sweep.run_program p in
      let bp =
        Workload.Sweep.run_program
          ~config:
            {
              Workload.Sweep.default with
              Workload.Sweep.variant = Dlx.Seq_dlx.Branch_predict;
            }
          p
      in
      Format.printf "  %-12.2f %12.2f %16.2f %10d@." tf
        base.Workload.Stats.cpi bp.Workload.Stats.cpi
        bp.Workload.Stats.rollbacks)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Format.printf
    "(sequential-fetch prediction: each taken branch beyond the delay@.";
  Format.printf
    " slot costs one squash; the delay-slot base machine is the oracle.)@."

(* ------------------------------------------------------------------ *)
(* E7: pipeline-depth sweep                                            *)
(* ------------------------------------------------------------------ *)

let depth_sweep () =
  section "E7" "Larger pipelines - the depth-parametric machine family";
  Format.printf "  %-6s %10s %14s %12s %12s@." "depth" "fwd srcs"
    "fast-chain CPI" "late CPI" "indep CPI";
  List.iter
    (fun n ->
      let cpi program =
        let tr = Core.Elastic.transform ~n ~program () in
        let report =
          Proof_engine.Consistency.check
            ~max_instructions:(List.length program) tr
        in
        if not (Proof_engine.Consistency.ok report) then begin
          Format.printf "INCONSISTENT at depth %d@." n;
          exit 1
        end;
        Pipeline.Pipesem.cpi report.Proof_engine.Consistency.stats
      in
      let sources = n - 2 in
      Format.printf "  %-6d %10d %14.2f %12.2f %12.2f@." n sources
        (cpi (Core.Elastic.chain_program ~late:false ~length:24))
        (cpi (Core.Elastic.chain_program ~late:true ~length:24))
        (cpi (Core.Elastic.independent_program ~length:24)))
    [ 3; 4; 5; 6; 8; 10 ];
  Format.printf
    "(all verified; forwarding keeps dependent fast chains at CPI ~1 at@.";
  Format.printf
    " every depth, late-result dependencies stall n-4 cycles each.)@."

(* ------------------------------------------------------------------ *)
(* E8: external stalls (slow memory)                                   *)
(* ------------------------------------------------------------------ *)

let memory_latency_sweep () =
  section "E8" "External stalls (paper 3) - memory wait-state sweep";
  Format.printf
    "  %-22s %10s %10s %10s@." "memory model" "memcpy CPI" "bsort CPI"
    "fib CPI";
  let kernels =
    [ Dlx.Progs.memcpy 8; Dlx.Progs.bubble_sort [ 9; 3; 7; 1; 8; 2 ];
      Dlx.Progs.fib 10 ]
  in
  List.iter
    (fun (label, ext) ->
      let cpis =
        List.map
          (fun p ->
            let config =
              { Workload.Sweep.default with Workload.Sweep.ext } in
            (Workload.Sweep.run_program ~config p).Workload.Stats.cpi)
          kernels
      in
      match cpis with
      | [ a; b; c ] ->
        Format.printf "  %-22s %10.2f %10.2f %10.2f@." label a b c
      | _ -> ())
    [
      ("ideal", None);
      ("wait 1 every 8", Some (Workload.Sweep.memory_wait_states ~every:8 ~wait:1));
      ("wait 1 every 4", Some (Workload.Sweep.memory_wait_states ~every:4 ~wait:1));
      ("wait 2 every 4", Some (Workload.Sweep.memory_wait_states ~every:4 ~wait:2));
      ("wait 3 every 4", Some (Workload.Sweep.memory_wait_states ~every:4 ~wait:3));
    ];
  Format.printf
    "(every run verified: the ext_k stall path never affects results,@.";
  Format.printf " only cycle counts - the stall engine absorbs wait states.)@."

(* ------------------------------------------------------------------ *)
(* E9: re-partitioning the DLX (mechanized step 1)                     *)
(* ------------------------------------------------------------------ *)

let retime_sweep () =
  section "E9" "Re-partitioning - splitting the DLX at each boundary";
  Format.printf "  %-24s %8s %8s %6s %10s@." "machine" "stages" "cycles" "CPI"
    "verified";
  let p = Dlx.Progs.bubble_sort [ 9; 3; 7; 1; 8; 2 ] in
  let program = Dlx.Progs.program p in
  let run label m =
    let tr =
      Pipeline.Transform.run ~hints:(Dlx.Seq_dlx.hints Dlx.Seq_dlx.Base) m
    in
    let report =
      Proof_engine.Consistency.check
        ~max_instructions:p.Dlx.Progs.dyn_instructions tr
    in
    Format.printf "  %-24s %8d %8d %6.2f %10s@." label
      m.Machine.Spec.n_stages
      report.Proof_engine.Consistency.stats.Pipeline.Pipesem.cycles
      (Pipeline.Pipesem.cpi report.Proof_engine.Consistency.stats)
      (if Proof_engine.Consistency.ok report then "yes" else "NO")
  in
  let base = Dlx.Seq_dlx.machine ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base ~program in
  run "dlx5 (base)" base;
  run "split IF/ID" (Machine.Retime.insert_passthrough base ~at:1);
  run "split ID/EX" (Machine.Retime.insert_passthrough base ~at:2);
  run "split EX/MEM" (Machine.Retime.insert_passthrough base ~at:3);
  run "split MEM/WB" (Machine.Retime.insert_passthrough base ~at:4);
  run "2-cycle memory (x2)" (Machine.Retime.deepen base ~at:3 ~times:2);
  Format.printf
    "(stage insertion is mechanical: bridges extend the forwarding@.";
  Format.printf
    " chains, the tool re-synthesizes the extra sources and valid@.";
  Format.printf
    " bits, and every variant is re-verified.  Splitting after the@.";
  Format.printf
    " consumers of a value is cheap; splitting between producer and@.";
  Format.printf " consumer costs interlock stalls.)@."

(* ------------------------------------------------------------------ *)
(* PERF: compiled plans vs the tree-walking interpreter                *)
(* ------------------------------------------------------------------ *)

(* Time [f] by repetition until [budget] seconds of processor time
   have elapsed (at least [min_runs] runs), returning ns/run.  The
   repetition count is wall-clock dependent, so the work counters are
   off for the duration — the WORK.* totals of a run must not vary
   with host speed. *)
let time_ns_per_run ?(budget = 0.2) ?(min_runs = 3) f =
  Obs.Counters.with_disabled @@ fun () ->
  let t0 = Sys.time () in
  let runs = ref 0 in
  while !runs < min_runs || Sys.time () -. t0 < budget do
    ignore (f ());
    incr runs
  done;
  (Sys.time () -. t0) *. 1e9 /. float_of_int !runs

(* Interleaved wall-clock timing of two alternatives, for ratios: single
   runs of [a] and [b] alternate (which goes first alternates too) until
   [budget] seconds have passed and at least [min_pairs] pairs ran; each
   side reports its median ns/run.  Timing the two in back-to-back
   blocks lets a spell of host slowness land on one side only and skew
   the ratio; interleaved, it lands on both. *)
let time_wall_pair_ns ?(budget = 0.4) ?(min_pairs = 5) a b =
  Obs.Counters.with_disabled @@ fun () ->
  let once f =
    let t = Unix.gettimeofday () in
    ignore (f ());
    (Unix.gettimeofday () -. t) *. 1e9
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  let t0 = Unix.gettimeofday () in
  let ta = ref [] and tb = ref [] and pairs = ref 0 in
  while !pairs < min_pairs || Unix.gettimeofday () -. t0 < budget do
    if !pairs mod 2 = 0 then begin
      ta := once a :: !ta;
      tb := once b :: !tb
    end
    else begin
      tb := once b :: !tb;
      ta := once a :: !ta
    end;
    incr pairs
  done;
  (median !ta, median !tb)

let perf_compiled () =
  section "PERF"
    "Compiled evaluation plans vs interpreted simulation (same driver loop)";
  Format.printf "  %-16s %12s %14s %14s %9s %12s@." "kernel" "cycles"
    "interp ns/run" "compiled ns/run" "speedup" "Mcycles/s";
  let speedups =
    List.map
      (fun p ->
        let sim = sim_kernel p in
        let compiled = (Workload.Sim.run sim).Pipeline.Pipesem.stats in
        let interpreted =
          (Workload.Sim.run_interpreted sim).Pipeline.Pipesem.stats
        in
        (* The two engines drive the same cycle loop: every statistic
           must agree bit for bit, or the compiler is wrong. *)
        if compiled <> interpreted then begin
          Format.printf "STATS DIVERGE on %s (compiled vs interpreted)!@."
            p.Dlx.Progs.prog_name;
          exit 1
        end;
        let ns_c = time_ns_per_run (fun () -> Workload.Sim.run sim) in
        let ns_i =
          time_ns_per_run (fun () -> Workload.Sim.run_interpreted sim)
        in
        let speedup = ns_i /. ns_c in
        let mcps = float_of_int compiled.Pipeline.Pipesem.cycles /. ns_c *. 1e3 in
        Format.printf "  %-16s %12d %14.0f %14.0f %8.2fx %12.2f@."
          p.Dlx.Progs.prog_name compiled.Pipeline.Pipesem.cycles ns_i ns_c
          speedup mcps;
        let counts label ns =
          add_entry
            (Obs.Export.entry ~ns_per_run:ns
               ~cpi:(Pipeline.Pipesem.cpi compiled)
               ~instructions:compiled.Pipeline.Pipesem.retired
               ~cycles:compiled.Pipeline.Pipesem.cycles
               (Printf.sprintf "PERF.%s_sim_%s" label p.Dlx.Progs.prog_name))
        in
        counts "compiled" ns_c;
        counts "interpreted" ns_i;
        speedup)
      (* Long enough that cycle throughput dominates per-run setup
         (state creation, plan binding). *)
      [
        Workload.Gen.generate ~seed:7 ~length:400 Workload.Gen.typical;
        Workload.Gen.generate ~seed:11 ~length:400
          (Workload.Gen.alu_only ~dependency_bias:0.6);
      ]
  in
  let geo =
    exp
      (List.fold_left (fun a s -> a +. log s) 0.0 speedups
      /. float_of_int (List.length speedups))
  in
  add_entry (Obs.Export.entry ~ns_per_run:geo "PERF.speedup_geomean");
  Format.printf
    "geomean speedup %.2fx (identical cycles, retirements and hazard counts)@."
    geo

(* ------------------------------------------------------------------ *)
(* PERF-PAR: domain-pool sweep throughput vs serial                    *)
(* ------------------------------------------------------------------ *)

let perf_parallel ~jobs () =
  section "PERF-PAR"
    (Printf.sprintf
       "Parallel sweep throughput - domain pool (-j %d) vs serial" jobs);
  let biases = [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let sweep ?pool () =
    Workload.Sweep.dependency_sweep ?pool ~biases ~length:400 ~seed:7 ()
  in
  let serial = sweep () in
  Exec.Pool.with_pool ~size:jobs @@ fun pool ->
  let parallel = sweep ~pool () in
  (* The determinism contract, enforced: every sweep row (CPI, cycles,
     hazard and squash counts, ...) must match the serial run bit for
     bit at any pool size. *)
  if serial <> parallel then begin
    Format.printf "PARALLEL SWEEP ROWS DIVERGE from serial (-j %d)!@." jobs;
    exit 1
  end;
  Format.printf "  %d sweep points, rows bit-identical at -j %d@."
    (List.length serial) jobs;
  List.iter
    (fun (bias, (row : Workload.Stats.row)) ->
      add_entry
        (Obs.Export.entry ~cpi:row.Workload.Stats.cpi
           ~instructions:row.Workload.Stats.instructions
           ~cycles:row.Workload.Stats.cycles
           (Printf.sprintf "PERF.par_sweep_bias_%.0f" (bias *. 100.))))
    serial;
  Exec.Pool.reset_stats pool;
  let ns_serial, ns_parallel =
    time_wall_pair_ns (fun () -> sweep ()) (fun () -> sweep ~pool ())
  in
  let util = Exec.Pool.stats pool in
  let speedup = ns_serial /. ns_parallel in
  Format.printf
    "  serial %.2f ms/sweep, -j %d %.2f ms/sweep (medians, interleaved): \
     speedup %.2fx@."
    (ns_serial /. 1e6) jobs (ns_parallel /. 1e6) speedup;
  List.iter
    (fun (s : Exec.Pool.domain_stats) ->
      Format.printf "  worker %d: %4d tasks, %8.3f s busy@." s.Exec.Pool.worker
        s.Exec.Pool.tasks s.Exec.Pool.busy_s)
    util;
  (* Per-domain utilization guard: the sharded fan-out must actually
     spread the shards.  With real parallelism available (at least two
     cores backing at least two pool slots), at least two workers must
     have executed tasks; with a size-1 pool everything runs inline on
     the submitting thread. *)
  let cores = Domain.recommended_domain_count () in
  let expected = min jobs cores in
  let active =
    List.length
      (List.filter (fun (s : Exec.Pool.domain_stats) -> s.Exec.Pool.tasks > 0)
         util)
  in
  if expected >= 2 && active < 2 then begin
    Format.printf
      "PARALLEL SWEEP UNDER-UTILIZED: %d of %d workers ran tasks (-j %d, %d \
       cores)@."
      active jobs jobs cores;
    exit 1
  end;
  if jobs = 1 && active <> 1 then begin
    Format.printf "size-1 pool ran tasks off the submitting thread?!@.";
    exit 1
  end;
  (* Speedup floor, scaled to the parallelism this host can actually
     deliver: a sharded sweep over [jobs] slots backed by real cores
     should approach [jobs]x; demand a conservative fraction.  With
     [jobs = 1] the pooled run does identical semantic work plus
     dispatch — > 1x is physically impossible, so the floor only
     bounds the pool overhead.  An oversubscribed pool
     ([jobs > cores], e.g. -j 4 on this 1-core bench host) pays a
     host-dependent contention penalty that is not a code regression:
     reported, not gated. *)
  if jobs > cores then
    Format.printf
      "  speedup gate: skipped (-j %d oversubscribes %d core%s; %.2fx is a \
       host artifact)@."
      jobs cores
      (if cores = 1 then "" else "s")
      speedup
  else begin
    let floor =
      if expected >= 4 then 1.5 else if expected >= 2 then 1.1 else 0.85
    in
    Format.printf "  speedup gate: %.2fx >= %.2fx floor (-j %d on %d core%s)@."
      speedup floor jobs cores
      (if cores = 1 then "" else "s");
    if speedup < floor then begin
      Format.printf "PARALLEL SWEEP SPEEDUP REGRESSED below the floor@.";
      exit 1
    end
  end;
  add_entry (Obs.Export.entry ~ns_per_run:ns_serial "PERF.sweep_serial");
  add_entry
    (Obs.Export.entry ~ns_per_run:ns_parallel
       ~breakdown:
         (List.map
            (fun (s : Exec.Pool.domain_stats) ->
              ( Printf.sprintf "worker%d_busy_s" s.Exec.Pool.worker,
                s.Exec.Pool.busy_s ))
            util)
       "PERF.sweep_parallel");
  (* The speedup only means anything relative to the hardware that
     produced it: a 0.85x row from a 1-core host reads as a regression
     until you see cores = 1.  Record the shape of the run next to the
     number (attached to a timing row, so informational, never
     gated). *)
  add_entry
    (Obs.Export.entry ~ns_per_run:speedup
       ~breakdown:
         [ ("jobs", float_of_int jobs); ("cores", float_of_int cores) ]
       "PERF.par_sweep_speedup")

(* ------------------------------------------------------------------ *)
(* PERF-BMC: compile-once batched verification vs rebuild-per-program  *)
(* ------------------------------------------------------------------ *)

(* The batched paths (Bmc.exhaustive ~load, Sweep ~batched) compile
   the machine shape once and drive every program by rebinding initial
   register values over per-domain sessions.  This section is both the
   benchmark (ns/program, programs/s, the PERF.bmc entries) and the
   @check guard that the fast path can never silently diverge: batched
   outcomes must equal the rebuild path's bit for bit, serially and
   under the pool, or the run fails. *)
let perf_bmc ~jobs () =
  section "PERF-BMC"
    (Printf.sprintf
       "Batched (compile-once) vs rebuild-per-program verification (-j %d)"
       jobs);
  (* One machine family per row: equality-check the three paths, then
     export the outcome (semantic — regressed by compare_baseline) and
     the per-program timings (informational). *)
  let pair name ~build ~load ~alphabet ~length =
    let bmc ?pool ~batched () =
      Proof_engine.Bmc.exhaustive ?pool
        ?load:(if batched then Some load else None)
        ~build ~alphabet ~length ()
    in
    let rebuild = bmc ~batched:false () in
    let batched = bmc ~batched:true () in
    let batched_par =
      Exec.Pool.with_pool ~size:jobs @@ fun pool -> bmc ~pool ~batched:true ()
    in
    if batched <> rebuild || batched_par <> rebuild then begin
      Format.printf "BATCHED BMC DIVERGES from the rebuild path on %s (-j %d)!@."
        name jobs;
      exit 1
    end;
    let programs = rebuild.Proof_engine.Bmc.programs in
    let failures = List.length rebuild.Proof_engine.Bmc.failures in
    add_entry
      (Obs.Export.entry
         ~breakdown:
           [
             ("programs", float_of_int programs);
             ("failures", float_of_int failures);
           ]
         (Printf.sprintf "PERF.bmc_%s_outcome" name));
    let per ~batched =
      time_ns_per_run (fun () -> bmc ~batched ()) /. float_of_int programs
    in
    let np_r = per ~batched:false in
    let np_b = per ~batched:true in
    let speedup = np_r /. np_b in
    Format.printf
      "  %-6s %4d programs: rebuild %8.0f ns/prog (%8.0f/s), batched %8.0f \
       ns/prog (%8.0f/s): %5.2fx, outcomes bit-identical at -j %d@."
      name programs np_r (1e9 /. np_r) np_b (1e9 /. np_b) speedup jobs;
    add_entry
      (Obs.Export.entry ~ns_per_run:np_r
         (Printf.sprintf "PERF.bmc_%s_rebuild" name));
    add_entry
      (Obs.Export.entry ~ns_per_run:np_b
         (Printf.sprintf "PERF.bmc_%s_batched" name));
    add_entry
      (Obs.Export.entry ~ns_per_run:speedup
         (Printf.sprintf "PERF.bmc_%s_speedup" name))
  in
  (* The 3-stage toy: run cost is a large share of the rebuild cost,
     so this is the conservative end of the win. *)
  pair "toy"
    ~build:(fun program -> Core.Toy.transform ~program ())
    ~load:(fun program -> Core.Toy.image ~program)
    ~alphabet:
      [
        Core.Toy.encode ~dst:1 ~src1:1 ~src2:1;
        Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
        Core.Toy.encode ~dst:1 ~src1:2 ~src2:2;
        Core.Toy.encode ~dst:3 ~src1:1 ~src2:3;
      ]
    ~length:3;
  (* A deep generated machine (6 stages, late unit, accumulator):
     transform + plan compilation dominates the rebuild path — the
     shape the compile-once design targets. *)
  let p =
    {
      Proof_engine.Machine_gen.n_stages = 6;
      data_width = 16;
      addr_bits = 3;
      late_stage = Some 3;
      has_accumulator = true;
      seed = 5;
    }
  in
  let enc = Proof_engine.Machine_gen.encode p in
  pair "gen6"
    ~build:(fun program ->
      Pipeline.Transform.run
        ~hints:(Proof_engine.Machine_gen.hints p)
        (Proof_engine.Machine_gen.machine p ~program))
    ~load:(fun program -> Proof_engine.Machine_gen.image p ~program)
    ~alphabet:
      [
        enc ~late:false ~dst:1 ~src1:1 ~src2:2;
        enc ~late:false ~dst:2 ~src1:1 ~src2:1;
        enc ~late:true ~dst:1 ~src1:2 ~src2:1;
        enc ~late:true ~dst:2 ~src1:1 ~src2:2;
      ]
    ~length:3;
  (* The benchmark machine itself, the 5-stage DLX: its ~ms
     transform + plan compilation is the cost the batched path
     amortizes, so this row carries the headline speedup. *)
  pair "dlx"
    ~build:(fun program -> Dlx.Seq_dlx.transform Dlx.Seq_dlx.Base ~program)
    ~load:(fun program -> Dlx.Seq_dlx.image ~program ())
    ~alphabet:
      Dlx.Isa.
        [
          encode (Add (1, 1, 2));
          encode (Addi (2, 1, 1));
          encode (Sub (1, 2, 1));
          encode (Xor (3, 1, 2));
        ]
    ~length:3;
  (* Same guard and measurement for the workload sweeps. *)
  let biases = [ 0.0; 0.5; 1.0 ] in
  let sweep ~batched () =
    Workload.Sweep.dependency_sweep ~batched ~biases ~length:200 ~seed:7 ()
  in
  let rows_rebuild = sweep ~batched:false () in
  let rows_batched = sweep ~batched:true () in
  if rows_rebuild <> rows_batched then begin
    Format.printf "BATCHED SWEEP ROWS DIVERGE from the rebuild path!@.";
    exit 1
  end;
  let ns_sr = time_ns_per_run (fun () -> sweep ~batched:false ()) in
  let ns_sb = time_ns_per_run (fun () -> sweep ~batched:true ()) in
  Format.printf
    "  sweep (%d points): rebuild %.2f ms, batched %.2f ms: speedup %.2fx, \
     rows bit-identical@."
    (List.length biases) (ns_sr /. 1e6) (ns_sb /. 1e6) (ns_sr /. ns_sb);
  (* A ratio, higher is better: the name carries "speedup", which is
     how the history trend gate reads a row's direction. *)
  add_entry
    (Obs.Export.entry ~ns_per_run:(ns_sr /. ns_sb)
       "PERF.sweep_batched_speedup")

(* ------------------------------------------------------------------ *)
(* PERF-BMC-LANES: bit-parallel lane verification vs scalar batched    *)
(* ------------------------------------------------------------------ *)

(* Lane packs (Sweep ~lanes) verify up to 62 sweep points in one
   cycle loop, one bit per program in each control word.  This section
   is the @check guard that the lane path can never silently diverge:
   rows AND the WORK counter deltas must equal the scalar batched
   sweep's bit for bit, or the run fails. *)
let perf_bmc_lanes () =
  section "PERF-BMC-LANES"
    "Bit-parallel 62-lane sweep verification vs scalar batched";
  let biases = [ 0.0; 0.5; 1.0 ] in
  let sweep ?(lanes = false) () =
    Workload.Sweep.dependency_sweep ~lanes ~biases ~length:200 ~seed:7 ()
  in
  let before = Obs.Counters.work_snapshot () in
  let rows_scalar = sweep () in
  let mid = Obs.Counters.work_snapshot () in
  let rows_lanes = sweep ~lanes:true () in
  let after = Obs.Counters.work_snapshot () in
  let delta a b = List.map2 (fun (n, x) (_, y) -> (n, y - x)) a b in
  if rows_scalar <> rows_lanes || delta before mid <> delta mid after then begin
    Format.printf "LANE SWEEP DIVERGES from the scalar batched sweep!@.";
    exit 1
  end;
  let ns_s = time_ns_per_run (fun () -> sweep ()) in
  let ns_l = time_ns_per_run (fun () -> sweep ~lanes:true ()) in
  Format.printf
    "  sweep (%d points): batched %.2f ms, lanes %.2f ms: speedup %.2fx, \
     rows and WORK bit-identical@."
    (List.length biases) (ns_s /. 1e6) (ns_l /. 1e6) (ns_s /. ns_l);
  add_entry
    (Obs.Export.entry ~ns_per_run:(ns_s /. ns_l) "PERF.sweep_lanes_speedup")

(* ------------------------------------------------------------------ *)
(* CAMPAIGN: fault-injection detection coverage (smoke campaign)       *)
(* ------------------------------------------------------------------ *)

(* A deterministic fault-injection campaign on the 3-stage toy
   machine: ~20 mutants sampled with a fixed seed, plus the
   deliberately wedged engine, which must be timed out and classified
   without aborting the run.  The classification counts and the
   sampled mutants' simulated cycles become a breakdown in the export
   and regress like CPI: any drift in detection coverage or in the
   cycles a livelocked mutant costs fails @check, and both must be
   bit-identical at every pool size. *)
let campaign_smoke ~jobs () =
  section "CAMPAIGN"
    (Printf.sprintf
       "Fault-injection detection coverage - %s smoke campaign (-j %d)"
       (Service.Machine_spec.to_string Service.Machine_spec.Toy3)
       jobs);
  let tr = Core.Toy.transform ~program:Core.Toy.default_program () in
  let seed = 42 in
  let sampled =
    Fault.Mutate.sample ~seed ~count:19
      (Fault.Mutate.enumerate ~transients:6 ~seed tr)
  in
  let hang = Fault.Mutate.apply (Fault.Mutate.Hang { at_cycle = 5 }) tr in
  let target =
    Fault.Campaign.make_target
      ~instructions:(List.length Core.Toy.default_program) tr
  in
  (* The wedged-engine mutant spins until the wall-clock timeout trips,
     so the cycles it burns vary with host speed: it runs with counters
     off, the sampled mutants with counters on.  The COUNTERS section
     reports the counts from before the mutants ran. *)
  let counters = Obs.Counters.(work_snapshot (), sched_snapshot ()) in
  let outcomes, sim_cycles =
    Exec.Pool.with_pool ~size:jobs @@ fun pool ->
    let run mutants =
      fst (Fault.Campaign.run ~pool ~timeout_s:2.0 target mutants)
    in
    let before = Obs.Counters.get Obs.Counters.Sim_cycles in
    let sampled = run sampled in
    let sim_cycles = Obs.Counters.get Obs.Counters.Sim_cycles - before in
    (sampled @ Obs.Counters.with_disabled (fun () -> run [ hang ]), sim_cycles)
  in
  let summary = Fault.Campaign.summarize outcomes in
  List.iter (fun o -> Format.printf "  %a@." Fault.Campaign.pp_outcome o)
    outcomes;
  Format.printf "  %a@." Fault.Campaign.pp_summary summary;
  Format.printf "  sampled mutants simulated %d cycles@." sim_cycles;
  add_entry
    (Obs.Export.entry
       ~breakdown:
         (Fault.Campaign.breakdown summary
         @ [ ("sim_cycles", float_of_int sim_cycles) ])
       "CAMPAIGN.toy3_smoke");
  if not (Fault.Campaign.ok summary) then begin
    Format.printf "CAMPAIGN FAILED: missed or aborted mutants@.";
    exit 1
  end;
  if summary.Fault.Campaign.timed_out <> 1 then begin
    Format.printf
      "CAMPAIGN FAILED: the wedged-engine mutant was not timed out@.";
    exit 1
  end;
  counters

(* ------------------------------------------------------------------ *)
(* COUNTERS: the deterministic work scores of this run                 *)
(* ------------------------------------------------------------------ *)

(* The counters as they stood before the campaign's mutants ran (the
   campaign gates its own cycle count).  Everything before them ran
   with counting on (except the repetition-timing loops, whose
   iteration counts are wall-clock dependent): the WORK totals are a
   deterministic score of the run — bit-identical at -j 1 and -j max,
   batched or rebuild — and regress exactly, both against the
   committed baseline and against the per-commit history.  The SCHED
   totals describe how the work was placed (pool tasks, session binds,
   queue depth) and are informational. *)
let counters_section (work, sched) =
  section "COUNTERS"
    "Deterministic work counters (WORK.*: gated exactly; SCHED.*: \
     informational)";
  let table title rows =
    Format.printf "  %-20s %14s@." title "count";
    List.iter (fun (n, v) -> Format.printf "  %-20s %14d@." n v) rows
  in
  table "work counter" work;
  Format.printf "@.";
  table "sched counter" sched;
  let breakdown rows = List.map (fun (n, v) -> (n, float_of_int v)) rows in
  add_entry (Obs.Export.entry ~breakdown:(breakdown work) "WORK.counters");
  add_entry (Obs.Export.entry ~breakdown:(breakdown sched) "SCHED.counters")

(* ------------------------------------------------------------------ *)
(* SERVE: directed robustness phases with exact counter outcomes       *)
(* ------------------------------------------------------------------ *)

(* Each phase drives one serve failure path to a count that is exact
   by construction — shed by queue arithmetic, retries by a crash
   budget, restarts by a kill budget, replay by journal shape — on
   its own fixed-size pools, so the deltas are identical at -j 1 and
   -j max and regress exactly like WORK.* scores.  Runs after
   [counters_section] so the WORK/SCHED snapshots above are
   untouched by the work done here. *)
let serve_robustness () =
  section "SERVE"
    "Robustness counters (shed / retry / restart / replay: gated exactly)";
  let module Req = Service.Request in
  let module Srv = Service.Serve in
  let delta id f =
    let before = Obs.Counters.get id in
    f ();
    Obs.Counters.get id - before
  in
  let line ?id kind machine kernel =
    Req.to_string
      (Req.make ?id
         ~spec:{ Req.default_spec with Req.machine; Req.kernel = kernel }
         kind)
  in
  let stats_lines =
    [
      line Req.Stats Service.Machine_spec.Dlx5 (Some "fib_10");
      line Req.Stats Service.Machine_spec.Dlx6 (Some "fib_10");
      line Req.Stats Service.Machine_spec.Dlx5 (Some "memcpy_8");
      line Req.Stats Service.Machine_spec.Dlx6 (Some "memcpy_8");
    ]
  in
  (* Shed: 10 distinct leaders against max_queue 4 -> exactly 6 shed
     (the four kept ones are cheap stats; the shed ones never run). *)
  let shed =
    delta Obs.Counters.Serve_shed (fun () ->
        let env = Service.Handler.create_env () in
        let admission = Srv.make_admission ~max_queue:4 ~retries:0 () in
        Exec.Pool.with_pool ~size:2 (fun pool ->
            let extra =
              [
                line Req.Stats Service.Machine_spec.Dlx5
                  (Some "dep_chain_24");
                line Req.Stats Service.Machine_spec.Dlx6
                  (Some "dep_chain_24");
                line Req.Verify Service.Machine_spec.Dlx5 (Some "fib_10");
                line Req.Verify Service.Machine_spec.Dlx6 (Some "fib_10");
                line Req.Verify Service.Machine_spec.Dlx5
                  (Some "memcpy_8");
                line Req.Verify Service.Machine_spec.Dlx6
                  (Some "memcpy_8");
              ]
            in
            ignore
              (Srv.process_batch ~env ~pool ~admission (stats_lines @ extra)
                : Service.Response.t list)))
  in
  (* Retry: crash probability 1 with budget 2 -> round one fails
     exactly two leaders, the retry round succeeds -> 2 retries. *)
  let retries =
    delta Obs.Counters.Serve_retries (fun () ->
        let env = Service.Handler.create_env () in
        let admission = Srv.make_admission ~max_queue:64 ~retries:2 () in
        let chaos =
          Exec.Chaos.create
            { Exec.Chaos.default_config with
              Exec.Chaos.seed = 5; crash = 1.0; crash_budget = Some 2 }
        in
        Exec.Pool.with_pool ~size:2 ~chaos (fun pool ->
            ignore
              (Srv.process_batch ~env ~pool ~admission stats_lines
                : Service.Response.t list)))
  in
  (* Restart: kill budget 1 -> the watchdog heals exactly one worker. *)
  let restarts =
    delta Obs.Counters.Pool_restarts (fun () ->
        let chaos =
          Exec.Chaos.create
            { Exec.Chaos.default_config with
              Exec.Chaos.seed = 7; kill = 1.0; kill_budget = Some 1 }
        in
        Exec.Pool.with_pool ~size:3 ~chaos (fun pool ->
            (* The tasks sleep briefly so the workers — not just the
               helping submitter — claim some, meeting the kill draw. *)
            let rec settle n =
              if n > 0 && Exec.Pool.heal pool = 0 then begin
                ignore
                  (Exec.Pool.map pool
                     (fun x ->
                       Unix.sleepf 0.001;
                       x + 1)
                     [ 1; 2; 3; 4; 5; 6; 7; 8 ]
                    : int list);
                settle (n - 1)
              end
            in
            settle 50))
  in
  (* Replay: a journal holding one completed and two pending entries
     -> exactly three responses re-emitted on restart. *)
  let replayed =
    delta Obs.Counters.Serve_journal_replayed (fun () ->
        let path = Filename.temp_file "bench_serve_journal" ".jsonl" in
        let done_line = line ~id:"r0" Req.Stats Service.Machine_spec.Toy3 None in
        let pending =
          [
            line ~id:"r1" Req.Stats Service.Machine_spec.Dlx5 (Some "fib_10");
            line ~id:"r2" Req.Stats Service.Machine_spec.Dlx6 (Some "fib_10");
          ]
        in
        let response =
          match Req.of_string done_line with
          | Ok req -> Service.Response.to_string (Service.Handler.handle req)
          | Error _ -> assert false
        in
        let j = Service.Journal.open_ path in
        (match Service.Journal.append_admits j (done_line :: pending) with
        | seq0 :: _ -> Service.Journal.append_done j [ (seq0, response) ]
        | [] -> assert false);
        Service.Journal.close j;
        let j = Service.Journal.open_ path in
        let env = Service.Handler.create_env () in
        let cfg = { Srv.default_config with Srv.journal = Some path; jobs = 2 } in
        let latency =
          Obs.Metrics.histogram (Obs.Metrics.create ()) "bench.latency_ms"
        in
        Exec.Pool.with_pool ~size:2 (fun pool ->
            Srv.replay ~env ~pool ~cfg ~shutdown:(Exec.Cancel.create ())
              ~latency
              ~admission:(Srv.make_admission ())
              j
              (fun _ -> ()));
        Service.Journal.close j;
        Sys.remove path)
  in
  Format.printf "  %-20s %14s@." "phase" "count";
  List.iter
    (fun (n, v) -> Format.printf "  %-20s %14d@." n v)
    [
      ("serve_shed", shed); ("serve_retries", retries);
      ("pool_restarts", restarts); ("journal_replayed", replayed);
    ];
  add_entry
    (Obs.Export.entry
       ~breakdown:
         [
           ("serve_shed", float_of_int shed);
           ("serve_retries", float_of_int retries);
           ("pool_restarts", float_of_int restarts);
           ("journal_replayed", float_of_int replayed);
         ]
       "SERVE.counters")

(* ------------------------------------------------------------------ *)
(* Baseline regression guard (@check): compare the semantic fields of
   this run's export against the committed BENCH_pipeline.json.  CPI,
   instruction and cycle counts are deterministic — any drift means
   the simulators changed behaviour.  Breakdowns of non-timing entries
   (hazard-attribution terms, campaign detection coverage) are
   semantic too and diffed the same way; wall-clock (ns_per_run)
   fields — and the per-worker breakdowns attached to them — are
   reported but never fail the build.                                  *)
(* ------------------------------------------------------------------ *)

let compare_baseline ~path () =
  let entries = List.rev !export_entries in
  match Obs.Export.read_file ~path with
  | Error msg ->
    Format.printf "baseline %s unreadable: %s@." path msg;
    exit 1
  | Ok baseline ->
    let drift = ref [] in
    let compared = ref 0 in
    List.iter
      (fun (b : Obs.Export.entry) ->
        match
          List.find_opt
            (fun (e : Obs.Export.entry) ->
              e.Obs.Export.experiment = b.Obs.Export.experiment)
            entries
        with
        | None -> ()  (* baseline entry from another mode (e.g. full) *)
        | Some e ->
          incr compared;
          let check field pp old_v new_v =
            if old_v <> new_v then
              drift :=
                Format.asprintf "%s: %s %a -> %a" b.Obs.Export.experiment
                  field pp old_v pp new_v
                :: !drift
          in
          let pp_fo ppf = Format.fprintf ppf "%a" (Format.pp_print_option Format.pp_print_float) in
          let pp_io ppf = Format.fprintf ppf "%a" (Format.pp_print_option Format.pp_print_int) in
          check "cpi" pp_fo b.Obs.Export.cpi e.Obs.Export.cpi;
          check "instructions" pp_io b.Obs.Export.instructions
            e.Obs.Export.instructions;
          check "cycles" pp_io b.Obs.Export.cycles e.Obs.Export.cycles;
          (* Breakdowns on timing entries hold per-worker wall clock,
             and SCHED.* breakdowns hold pool-placement counts that
             legitimately vary with -j; everywhere else they are
             semantic (hazard terms, campaign classification counts,
             WORK.* scores) and must match key for key. *)
          let sched_entry =
            String.length b.Obs.Export.experiment >= 6
            && String.sub b.Obs.Export.experiment 0 6 = "SCHED."
          in
          (if
             b.Obs.Export.ns_per_run = None
             && e.Obs.Export.ns_per_run = None
             && not sched_entry
           then
             let pp_f ppf = Format.fprintf ppf "%g" in
             List.iter
               (fun (k, bv) ->
                 match List.assoc_opt k e.Obs.Export.breakdown with
                 | Some ev -> check ("breakdown." ^ k) pp_f bv ev
                 | None ->
                   drift :=
                     Printf.sprintf "%s: breakdown key %s disappeared"
                       b.Obs.Export.experiment k
                     :: !drift)
               b.Obs.Export.breakdown);
          match (b.Obs.Export.ns_per_run, e.Obs.Export.ns_per_run) with
          | Some old_ns, Some new_ns when old_ns > 0.0 ->
            Format.printf "  %-44s wall %+.0f%% (informational)@."
              b.Obs.Export.experiment
              ((new_ns -. old_ns) /. old_ns *. 100.0)
          | _ -> ())
      baseline;
    if !compared = 0 then begin
      Format.printf "baseline %s shares no experiments with this run@." path;
      exit 1
    end;
    if !drift <> [] then begin
      Format.printf "SEMANTIC DRIFT vs %s:@." path;
      List.iter (Format.printf "  %s@.") (List.rev !drift);
      exit 1
    end;
    Format.printf "baseline check ok: %d entries, no semantic drift@."
      !compared

(* ------------------------------------------------------------------ *)
(* Bechamel timing of each experiment's core computation               *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let fib10 = Dlx.Progs.fib 10 in
  let bheavy = Dlx.Progs.branch_heavy 8 in
  let toy () = Core.Toy.transform ~program:Core.Toy.default_program () in
  let dlx_tr = dlx_transform fib10 in
  let dlx_c = Pipeline.Pipesem.compile dlx_tr in
  let bp_tr = dlx_transform ~variant:Dlx.Seq_dlx.Branch_predict bheavy in
  let il_tr = dlx_transform ~options:interlock_only_options fib10 in
  [
    Test.make ~name:"T1_sequential_run_toy"
      (Staged.stage (fun () ->
           Machine.Seqsem.run ~max_instructions:6
             (Core.Toy.machine ~program:Core.Toy.default_program)));
    Test.make ~name:"F1_verilog_emission"
      (Staged.stage (fun () -> Core.verilog dlx_tr));
    Test.make ~name:"F2_dlx_transformation"
      (Staged.stage (fun () -> dlx_transform fib10));
    Test.make ~name:"C1_consistency_check_fib"
      (Staged.stage (fun () -> fst (run_kernel fib10)));
    Test.make ~name:"S1_branch_predict_simulation"
      (Staged.stage (fun () ->
           Pipeline.Pipesem.run ~stop_after:bheavy.Dlx.Progs.dyn_instructions
             bp_tr));
    Test.make ~name:"P1_obligation_discharge_toy"
      (Staged.stage (fun () -> Proof_engine.Obligation.discharge_all (toy ())));
    Test.make ~name:"E3_network_costing_32"
      (Staged.stage (fun () ->
           Pipeline.Mux_impl.measure ~sources:32 ~data_width:32));
    Test.make ~name:"E4_pipelined_simulation_fib"
      (Staged.stage (fun () ->
           Pipeline.Pipesem.run_compiled
             ~stop_after:fib10.Dlx.Progs.dyn_instructions dlx_c));
    Test.make ~name:"E4_interpreted_simulation_fib"
      (Staged.stage (fun () ->
           Pipeline.Pipesem.run_reference
             ~stop_after:fib10.Dlx.Progs.dyn_instructions dlx_tr));
    Test.make ~name:"E4_plan_compilation_dlx"
      (Staged.stage (fun () -> Pipeline.Pipesem.compile dlx_tr));
    Test.make ~name:"E5_interlock_only_simulation"
      (Staged.stage (fun () ->
           Pipeline.Pipesem.run ~stop_after:fib10.Dlx.Progs.dyn_instructions
             il_tr));
    Test.make ~name:"E6_workload_generation"
      (Staged.stage (fun () ->
           Workload.Gen.generate ~seed:9 ~length:80 Workload.Gen.typical));
    Test.make ~name:"E7_deep_transform_n10"
      (Staged.stage (fun () ->
           Core.Elastic.transform ~n:10
             ~program:(Core.Elastic.chain_program ~late:true ~length:8)
             ()));
  ]

let run_bechamel () =
  section "TIMING" "Bechamel micro-benchmarks (one per experiment)";
  Obs.Counters.with_disabled @@ fun () ->
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"experiments" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  in
  Format.printf "  %-44s %16s %8s@." "experiment" "ns/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] ->
          add_entry (Obs.Export.entry ~ns_per_run:e ("TIMING." ^ name));
          Printf.sprintf "%.0f" e
        | Some _ | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "n/a"
      in
      Format.printf "  %-44s %16s %8s@." name est r2)
    (List.sort compare rows)

(* --smoke: the fast subset wired into the @check alias — T1, F2 and
   C1 on one tiny kernel, the compiled-vs-interpreted perf check, the
   parallel-sweep determinism check, the batched-vs-rebuild BMC/sweep
   agreement check, the fault-injection smoke campaign, plus the
   export round-trip check. *)
let smoke ~jobs () =
  Obs.Counters.reset ();
  table1 ();
  figure2 ();
  case_study ~kernels:[ Dlx.Progs.fib 5 ] ();
  perf_compiled ();
  perf_parallel ~jobs ();
  perf_bmc ~jobs ();
  perf_bmc_lanes ();
  let counters = campaign_smoke ~jobs () in
  counters_section counters;
  serve_robustness ();
  write_export ();
  Format.printf "@.smoke ok.@."

let full ~jobs () =
  Obs.Counters.reset ();
  table1 ();
  figure1 ();
  figure2 ();
  case_study ();
  speculation ();
  proof ();
  symbolic_proofs ();
  mux_sweep ();
  speedup ();
  forwarding_value ();
  branch_sweep ();
  depth_sweep ();
  memory_latency_sweep ();
  retime_sweep ();
  perf_compiled ();
  perf_parallel ~jobs ();
  perf_bmc ~jobs ();
  perf_bmc_lanes ();
  let counters = campaign_smoke ~jobs () in
  run_bechamel ();
  counters_section counters;
  serve_robustness ();
  write_export ();
  Format.printf "@.all experiments reproduced.@."

(* ------------------------------------------------------------------ *)
(* Trend gate (--history): regress this run against the per-commit
   history, then append it as a new record.  WORK.* rows gate exactly
   against the newest record; timing rows gate on a tolerance band
   over the last K records (see Obs.History).  Appending happens only
   after every other guard passed, so the history holds green runs.   *)
(* ------------------------------------------------------------------ *)

let run_history ~path =
  section "HISTORY" (Printf.sprintf "Per-commit trend gate - %s" path);
  let entries = List.rev !export_entries in
  let history =
    if not (Sys.file_exists path) then begin
      Format.printf "  no history yet; this run seeds the first record@.";
      []
    end
    else
      match Obs.History.read ~path with
      | Ok h -> h
      | Error msg ->
        Format.printf "history %s unreadable: %s@." path msg;
        exit 1
  in
  let gates = Obs.History.trend_gate ~history entries in
  if gates <> [] then begin
    Format.printf "TREND GATE FAILED: %d regressed row(s) vs %s@."
      (List.length gates) path;
    Format.printf "%a" Obs.History.pp_gates gates;
    exit 1
  end;
  let r =
    {
      Obs.History.commit = Obs.History.current_commit ();
      epoch = Unix.time ();
      entries;
    }
  in
  Obs.History.append ~path r;
  Format.printf "  trend gate ok (%d prior record(s)); appended %s@."
    (List.length history) r.Obs.History.commit

let () =
  let argv = Sys.argv in
  let baseline = ref None in
  let jobs = ref (Exec.Pool.default_size ()) in
  let out = ref None in
  let rebaseline = ref false in
  let history = ref false in
  let history_file = ref None in
  Array.iteri
    (fun i a ->
      let value () =
        if i + 1 < Array.length argv then Some argv.(i + 1) else None
      in
      match a with
      | "--baseline" -> baseline := value ()
      | "--out" -> out := value ()
      | "--rebaseline" -> rebaseline := true
      | "--history" -> history := true
      | "--history-file" ->
        history := true;
        history_file := value ()
      | "-j" | "--jobs" -> (
        match value () with
        | Some "max" -> jobs := Exec.Pool.default_size ()
        | Some n -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> jobs := n
          | _ ->
            Format.printf "bad -j value %S (want a positive int or max)@." n;
            exit 2)
        | None ->
          Format.printf "-j needs a value@.";
          exit 2)
      | _ -> ())
    argv;
  (match (!out, !rebaseline) with
  | Some _, true ->
    Format.printf "--out and --rebaseline are mutually exclusive@.";
    exit 2
  | Some p, false -> export_path := p
  | None, true ->
    (* The committed baseline, anchored at the repository root so the
       flag works from dune's _build mirror too. *)
    let root =
      match Obs.History.repo_root () with Some r -> r | None -> "."
    in
    export_path := Filename.concat root "BENCH_pipeline.json"
  | None, false -> ());
  if Array.exists (( = ) "--smoke") argv then smoke ~jobs:!jobs ()
  else full ~jobs:!jobs ();
  (match !baseline with
  | None -> ()
  | Some path -> compare_baseline ~path ());
  if !history then
    run_history
      ~path:
        (match !history_file with
        | Some p -> p
        | None -> Obs.History.default_path ())
