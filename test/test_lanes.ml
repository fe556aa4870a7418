(* The lane-aware differential battery: the bit-parallel 62-lane BMC
   path (Bmc.exhaustive ~lanes / Consistency.check_lanes) must be
   observationally identical to the scalar batched path — verdicts,
   failure enumeration order, evidence strings, per-program statistics
   and the deterministic WORK counters — on random machines and random
   packings, serially and through the domain pool.  Failures print the
   qcheck seed so they replay with `QCHECK_SEED=<n> dune runtest`. *)

module Pool = Exec.Pool
module C = Proof_engine.Consistency
module G = Proof_engine.Machine_gen
module Bmc = Proof_engine.Bmc
module Mutate = Fault.Mutate

let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

let counted f =
  Obs.Counters.reset ();
  let r = f () in
  (r, Obs.Counters.work_snapshot ())

let work = Alcotest.(list (pair string int))

(* ------------------------------------------------------------------ *)
(* Property: lanes = scalar on random machines and random packings     *)
(* ------------------------------------------------------------------ *)

(* One case: a sampled machine, an alphabet of [width] distinct
   encodings and a program length — so the pack holds width^length
   programs (1..64, crossing the 62-lane chunk boundary at 64). *)
type case = { mseed : int; width : int; length : int }

let pp_lane_case { mseed; width; length } =
  Printf.sprintf
    "QCHECK_SEED=%d machine seed=%d alphabet=%d length=%d (%d programs)"
    qcheck_seed mseed width length
    (int_of_float (float_of_int width ** float_of_int length))

let arb_lane_case =
  QCheck.make ~print:pp_lane_case
    QCheck.Gen.(
      let* mseed = int_bound 10_000 in
      let* width = int_range 1 4 in
      let+ length = int_range 1 3 in
      { mseed; width; length })

let bmc_setup { mseed; width; _ } =
  let p = G.sample_params ~seed:mseed in
  let build program =
    Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program)
  in
  let load program = G.image p ~program in
  let alphabet =
    List.init width (fun i ->
        G.encode p ~late:(i land 1 = 1)
          ~dst:((i mod 3) + 1)
          ~src1:1 ~src2:((i mod 2) + 1))
  in
  (build, load, alphabet)

let check_lane_case case =
  let build, load, alphabet = bmc_setup case in
  let run ?pool ?lanes () =
    Bmc.exhaustive ?pool ?lanes ~load ~build ~alphabet ~length:case.length ()
  in
  let scalar, w_scalar = counted (fun () -> run ()) in
  let lanes, w_lanes = counted (fun () -> run ~lanes:true ()) in
  let pooled, w_pooled =
    counted (fun () ->
        Pool.with_pool ~size:4 (fun pool -> run ~pool ~lanes:true ()))
  in
  if lanes <> scalar then
    QCheck.Test.fail_reportf "lane outcome <> scalar:@.%s" (pp_lane_case case);
  if pooled <> scalar then
    QCheck.Test.fail_reportf "pooled lane outcome <> scalar:@.%s"
      (pp_lane_case case);
  if w_lanes <> w_scalar then
    QCheck.Test.fail_reportf "lane WORK <> scalar:@.%s" (pp_lane_case case);
  if w_pooled <> w_scalar then
    QCheck.Test.fail_reportf "pooled lane WORK <> scalar:@.%s"
      (pp_lane_case case);
  true

let prop_lanes_equal_scalar =
  QCheck.Test.make
    ~name:"lane BMC = scalar BMC (outcome + WORK), serial and -j 4" ~count:12
    arb_lane_case check_lane_case

(* ------------------------------------------------------------------ *)
(* Partial packs: lane counts 1, 2, 62 must not read garbage           *)
(* ------------------------------------------------------------------ *)

(* check_lanes verdicts against per-program scalar reports: outcome,
   ok and the full per-run statistics must agree lane by lane.  Any
   garbage bit leaking from an unused lane shows up as a stats or
   verdict difference. *)
let test_partial_packs () =
  let p = G.sample_params ~seed:42 in
  let t = Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program:[]) in
  let shape = C.shape t in
  let max_instructions = 8 in
  List.iter
    (fun count ->
      (* distinct programs, deterministic in the lane index *)
      let programs =
        List.init count (fun i ->
            List.init 4 (fun j ->
                G.encode p ~late:((i + j) land 1 = 1)
                  ~dst:(((i * 7) + j) mod 3 + 1)
                  ~src1:((i + j) mod 2 + 1)
                  ~src2:((i mod 2) + 1)))
      in
      let inits = Array.of_list (List.map (fun pr -> G.image p ~program:pr) programs) in
      let verdicts = C.check_lanes ~max_instructions ~inits shape in
      List.iteri
        (fun l pr ->
          match
            C.check_batched_result ~max_instructions
              ~init:(G.image p ~program:pr) shape
          with
          | Error _ -> Alcotest.failf "count %d lane %d: scalar check errored" count l
          | Ok report ->
            let v = verdicts.(l) in
            Alcotest.(check bool)
              (Printf.sprintf "count %d lane %d: ok" count l)
              (C.ok report) v.C.lv_ok;
            Alcotest.(check bool)
              (Printf.sprintf "count %d lane %d: outcome" count l)
              true
              (v.C.lv_outcome = report.C.outcome);
            Alcotest.(check bool)
              (Printf.sprintf "count %d lane %d: stats" count l)
              true
              (v.C.lv_stats = report.C.stats))
        programs)
    [ 1; 2; 61; 62 ]

(* 63 and 64 programs cross the 62-lane chunk boundary inside the BMC
   driver: a full pack plus a 1- or 2-lane remainder pack. *)
let test_chunk_boundaries () =
  let p = G.sample_params ~seed:7 in
  let build program =
    Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program)
  in
  let load program = G.image p ~program in
  List.iter
    (fun n_programs ->
      let alphabet, length =
        if n_programs = 64 then
          ( List.init 4 (fun i ->
                G.encode p ~late:(i land 1 = 1) ~dst:((i mod 3) + 1) ~src1:1
                  ~src2:2),
            3 )
        else
          ( List.init n_programs (fun i ->
                G.encode p
                  ~late:(i land 1 = 1)
                  ~dst:((i mod 3) + 1)
                  ~src1:((i / 3) mod 3 + 1)
                  ~src2:((i / 9) mod 3 + 1)),
            1 )
      in
      let run ?lanes () = Bmc.exhaustive ?lanes ~load ~build ~alphabet ~length () in
      let scalar, w_scalar = counted (fun () -> run ()) in
      let lanes, w_lanes = counted (fun () -> run ~lanes:true ()) in
      Alcotest.(check int)
        (Printf.sprintf "%d programs enumerated" n_programs)
        n_programs scalar.Bmc.programs;
      Alcotest.(check bool)
        (Printf.sprintf "%d programs: lanes = scalar" n_programs)
        true (lanes = scalar);
      Alcotest.check work
        (Printf.sprintf "%d programs: WORK lanes = scalar" n_programs)
        w_scalar w_lanes)
    [ 63; 64 ]

(* ------------------------------------------------------------------ *)
(* Directed divergence: one lane stalls differently                    *)
(* ------------------------------------------------------------------ *)

(* Pack three copies of a hazard-free program with one program whose
   late-unit dependency forces an interlock stall.  The divergence
   mask must flag exactly the odd lane, at the first cycle its scalar
   stall/rollback vectors leave the pack's majority — computed here
   from the scalar per-cycle traces, independently of the lane
   engine. *)
let test_directed_divergence () =
  let p =
    {
      G.n_stages = 6;
      data_width = 16;
      addr_bits = 3;
      late_stage = Some 3;
      has_accumulator = true;
      seed = 5;
    }
  in
  let t = Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program:[]) in
  let shape = C.shape t in
  (* A: independent non-late ops; B: a late op immediately consumed. *)
  let prog_a =
    [
      G.encode p ~late:false ~dst:1 ~src1:2 ~src2:3;
      G.encode p ~late:false ~dst:4 ~src1:5 ~src2:6;
      G.encode p ~late:false ~dst:2 ~src1:5 ~src2:3;
    ]
  in
  let prog_b =
    [
      G.encode p ~late:true ~dst:1 ~src1:2 ~src2:3;
      G.encode p ~late:false ~dst:4 ~src1:1 ~src2:1;
      G.encode p ~late:false ~dst:2 ~src1:5 ~src2:3;
    ]
  in
  let max_instructions = List.length prog_a + 4 in
  let trace_of pr =
    match
      C.check_batched_result ~max_instructions ~init:(G.image p ~program:pr)
        shape
    with
    | Ok report ->
      Alcotest.(check bool) "scalar run consistent" true (C.ok report);
      List.map
        (fun (r : Pipeline.Pipesem.cycle_record) ->
          (Array.to_list r.Pipeline.Pipesem.stall,
           Array.to_list r.Pipeline.Pipesem.rollback))
        report.C.trace
    | Error _ -> Alcotest.fail "scalar trace failed"
  in
  let ta = trace_of prog_a and tb = trace_of prog_b in
  let rec first_diff i = function
    | a :: ar, b :: br -> if a <> b then i else first_diff (i + 1) (ar, br)
    | _ -> Alcotest.fail "programs never diverge; pick different programs"
  in
  let expected = first_diff 0 (ta, tb) in
  let inits =
    Array.of_list
      (List.map
         (fun pr -> G.image p ~program:pr)
         [ prog_a; prog_a; prog_a; prog_b ])
  in
  let verdicts = C.check_lanes ~max_instructions ~inits shape in
  Array.iteri
    (fun l (v : C.lane_verdict) ->
      Alcotest.(check bool) (Printf.sprintf "lane %d ok" l) true v.C.lv_ok;
      if l < 3 then
        Alcotest.(check int)
          (Printf.sprintf "majority lane %d never flagged" l)
          (-1) v.C.lv_divergence
      else
        Alcotest.(check int) "odd lane flagged at the scalar divergence cycle"
          expected v.C.lv_divergence)
    verdicts

(* ------------------------------------------------------------------ *)
(* Evidence: a faulty machine's lane sweep = scalar sweep              *)
(* ------------------------------------------------------------------ *)

(* Structural mutants of the toy machine, swept exhaustively with and
   without lanes: the outcome records — including the enumeration
   order and evidence strings extracted by the peeled lanes' scalar
   replays — must be identical.  This is the lane path's
   counterexample-extraction contract. *)
let test_faulty_evidence_equality () =
  let alphabet =
    [
      Core.Toy.encode ~dst:1 ~src1:1 ~src2:2;
      Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
      Core.Toy.encode ~dst:1 ~src1:2 ~src2:2;
    ]
  in
  let structurals =
    List.filter
      (fun (m : Mutate.mutant) -> m.Mutate.mut_structural)
      (Mutate.enumerate ~transients:0
         (Core.Toy.transform ~program:Core.Toy.default_program ()))
  in
  Alcotest.(check bool) "structural mutants found" true (structurals <> []);
  let detected = ref 0 in
  List.iteri
    (fun i (m : Mutate.mutant) ->
      if i < 6 then begin
        let build program =
          Mutate.rewrite m.Mutate.mut_fault (Core.Toy.transform ~program ())
        in
        let run ?lanes () =
          Bmc.exhaustive ?lanes ~inject:Pipeline.Pipesem.no_injection
            ~load:(fun program -> Core.Toy.image ~program)
            ~build ~alphabet ~length:3 ()
        in
        let scalar = run () in
        let lanes = run ~lanes:true () in
        if scalar.Bmc.failures <> [] then incr detected;
        Alcotest.(check bool)
          (Printf.sprintf "mutant %s: lanes = scalar" m.Mutate.mut_id)
          true (lanes = scalar)
      end)
    structurals;
  Alcotest.(check bool) "some mutants produced counterexamples" true
    (!detected > 0)

(* ------------------------------------------------------------------ *)
(* DLX: register files, hazards and speculation through the lanes      *)
(* ------------------------------------------------------------------ *)

let test_dlx_bmc_lanes () =
  (* The benchmark's DLX BMC row: 64 programs over the ALU alphabet,
     through both paths, serial and pooled. *)
  let alphabet =
    Dlx.Isa.
      [
        encode (Add (1, 1, 2));
        encode (Addi (2, 1, 1));
        encode (Sub (1, 2, 1));
        encode (Xor (3, 1, 2));
      ]
  in
  let build program = Dlx.Seq_dlx.transform Dlx.Seq_dlx.Base ~program in
  let load program = Dlx.Seq_dlx.image ~program () in
  let run ?pool ?lanes () =
    Bmc.exhaustive ?pool ?lanes ~load ~build ~alphabet ~length:3 ()
  in
  let scalar, w_scalar = counted (fun () -> run ()) in
  let lanes, w_lanes = counted (fun () -> run ~lanes:true ()) in
  let pooled, w_pooled =
    counted (fun () ->
        Pool.with_pool ~size:4 (fun pool -> run ~pool ~lanes:true ()))
  in
  Alcotest.(check int) "64 programs" 64 scalar.Bmc.programs;
  Alcotest.(check bool) "no counterexamples" true (Bmc.ok scalar);
  Alcotest.(check bool) "lanes = scalar" true (lanes = scalar);
  Alcotest.(check bool) "pooled lanes = scalar" true (pooled = scalar);
  Alcotest.check work "WORK lanes = scalar" w_scalar w_lanes;
  Alcotest.check work "WORK pooled lanes = scalar" w_scalar w_pooled

let test_dlx_speculating_sweep_lanes () =
  (* Branch-predicting sweeps roll back and squash: the lane engine's
     rollback commit order, Via_rollback retirement checks and squash
     accounting must reproduce the scalar rows (which embed the
     per-point stats) exactly. *)
  let config =
    {
      Workload.Sweep.default with
      Workload.Sweep.variant = Dlx.Seq_dlx.Branch_predict;
    }
  in
  let run ?lanes () =
    Workload.Sweep.branch_sweep ~config ?lanes
      ~taken_fracs:[ 0.0; 0.3; 0.6; 1.0 ]
      ~length:40 ~seed:11 ()
  in
  let scalar, w_scalar = counted (fun () -> run ()) in
  (* WORK equality alone cannot tell a genuine lane run from the
     scalar fallback (the fallback is WORK-identical by construction).
     The span trace can: a lane run records [pipesem.run_lanes] and no
     scalar [pipesem.run]; a fallback would record one [pipesem.run]
     per lane. *)
  Obs.Span.set_enabled true;
  let lanes, w_lanes = counted (fun () -> run ~lanes:true ()) in
  let spans = List.map (fun r -> r.Obs.Span.span_name) (Obs.Span.records ()) in
  Obs.Span.set_enabled false;
  Alcotest.(check bool)
    "lane engine ran" true
    (List.mem "pipesem.run_lanes" spans);
  Alcotest.(check bool)
    "no scalar fallback" false (List.mem "pipesem.run" spans);
  Alcotest.(check bool) "rows lanes = scalar" true (lanes = scalar);
  Alcotest.check work "WORK lanes = scalar" w_scalar w_lanes;
  (* The base-variant dependency sweep, for the stall-only profile. *)
  let run ?lanes () =
    Workload.Sweep.dependency_sweep ?lanes ~biases:[ 0.0; 0.5; 1.0 ]
      ~length:40 ~seed:7 ()
  in
  let scalar, w_scalar = counted (fun () -> run ()) in
  let lanes, w_lanes = counted (fun () -> run ~lanes:true ()) in
  Alcotest.(check bool) "dependency rows lanes = scalar" true (lanes = scalar);
  Alcotest.check work "dependency WORK lanes = scalar" w_scalar w_lanes

(* The lane twin of the scalar checker's store-against-image test
   (test_proof): [store] differs from the ALU-only [alu] only by one
   store, so MEM is the only register that diverges.  Against [alu]'s
   reference trace every lane starts from the same shared zero image;
   the lane whose row a store has touched must stop counting as
   holding it. *)
let test_store_against_image_lanes () =
  let body mid =
    Dlx.Asm.
      [
        Insn (Dlx.Isa.Addi (1, 0, 5));
        Insn (Dlx.Isa.Addi (2, 0, 7));
        Insn mid;
        Insn (Dlx.Isa.Add (3, 1, 2));
        Insn (Dlx.Isa.Add (4, 3, 1));
      ]
  in
  let alu = Dlx.Progs.make "alu" (body (Dlx.Isa.Add (0, 1, 2))) in
  let store = Dlx.Progs.make "store" (body (Dlx.Isa.Sw (0, 1, 16))) in
  let n = alu.Dlx.Progs.dyn_instructions in
  let trace (p : Dlx.Progs.t) =
    Dlx.Seq_dlx.ref_trace Dlx.Seq_dlx.Base ~program:(Dlx.Progs.program p)
      ~instructions:n
  in
  let image (p : Dlx.Progs.t) =
    Dlx.Seq_dlx.image ~program:(Dlx.Progs.program p) ()
  in
  let shape =
    C.shape
      (Dlx.Seq_dlx.transform Dlx.Seq_dlx.Base
         ~program:(Dlx.Progs.program alu))
  in
  let references = [| trace alu; trace alu; trace store |] in
  let inits = [| image alu; image store; image store |] in
  let expected = [ true; false; true ] in
  Alcotest.(check (list bool)) "scalar verdicts" expected
    (List.init 3 (fun l ->
         C.ok
           (C.check_batched ~max_instructions:n ~reference:references.(l)
              ~init:inits.(l) shape)));
  Obs.Span.set_enabled true;
  let verdicts = C.check_lanes ~references ~inits shape in
  let spans = List.map (fun r -> r.Obs.Span.span_name) (Obs.Span.records ()) in
  Obs.Span.set_enabled false;
  Alcotest.(check bool) "lane engine ran" true
    (List.mem "pipesem.run_lanes" spans);
  Alcotest.(check bool) "no scalar fallback" false
    (List.mem "pipesem.run" spans);
  Alcotest.(check (list bool)) "lane verdicts" expected
    (Array.to_list (Array.map (fun v -> v.C.lv_ok) verdicts))

(* ------------------------------------------------------------------ *)
(* The liveness bound ends a lane's run where it ends a scalar run     *)
(* ------------------------------------------------------------------ *)

(* A hook-free livelock: dlx5_intr with its interrupt check tied to
   "taken" and made non-retiring squashes and refetches the instruction
   in stage 4 on every cycle it gets there, so fetch stays busy and
   nothing retires.  Lanes that must retire stop at the liveness bound
   (104 cycles on five stages), exactly like the scalar run of each. *)
let test_liveness_bound_lanes () =
  let p = Dlx.Progs.fib 5 in
  let tr =
    Dlx.Seq_dlx.transform
      (Dlx.Seq_dlx.With_interrupts { sisr = 8 })
      ~program:(Dlx.Progs.program p)
  in
  let tr =
    {
      tr with
      Pipeline.Transform.speculations =
        List.map
          (fun (sp : Pipeline.Fwd_spec.speculation) ->
            { sp with Pipeline.Fwd_spec.mispredict = Hw.Expr.tru;
                      retires = false })
          tr.Pipeline.Transform.speculations;
    }
  in
  let c = Pipeline.Pipesem.compile tr in
  let stop_afters = [| 0; 1; p.Dlx.Progs.dyn_instructions |] in
  let ledger = Obs.Counters.ledger () in
  let lanes =
    Pipeline.Pipesem.run_lanes_session ~ledger
      ~inits:(Array.map (fun _ -> []) stop_afters)
      ~stop_afters
      (Pipeline.Pipesem.lanes_session c)
  in
  Alcotest.(check int) "B on five stages" 104
    (Pipeline.Pipesem.liveness_bound ~n_stages:5);
  Array.iteri
    (fun l stop_after ->
      let scalar = Pipeline.Pipesem.run_compiled ~stop_after c in
      let lane = lanes.(l) in
      let name = Printf.sprintf "lane %d (stop_after %d)" l stop_after in
      Alcotest.(check bool) (name ^ ": outcome = scalar") true
        (lane.Pipeline.Pipesem.lr_outcome = scalar.Pipeline.Pipesem.outcome);
      Alcotest.(check bool) (name ^ ": stats = scalar") true
        (lane.Pipeline.Pipesem.lr_stats = scalar.Pipeline.Pipesem.stats);
      if stop_after > 0 then begin
        Alcotest.(check bool) (name ^ ": out of cycles") true
          (lane.Pipeline.Pipesem.lr_outcome = Pipeline.Pipesem.Out_of_cycles);
        Alcotest.(check int) (name ^ ": stopped at cycle 104") 104
          lane.Pipeline.Pipesem.lr_stats.Pipeline.Pipesem.cycles
      end)
    stop_afters

let () =
  Alcotest.run "lanes"
    [
      ( "differential",
        [
          Alcotest.test_case "partial packs 1/2/61/62" `Quick
            test_partial_packs;
          Alcotest.test_case "chunk boundaries 63/64" `Quick
            test_chunk_boundaries;
          Alcotest.test_case "directed one-lane divergence" `Quick
            test_directed_divergence;
          Alcotest.test_case "faulty sweeps: evidence equality" `Quick
            test_faulty_evidence_equality;
          Alcotest.test_case "dlx bmc row" `Quick test_dlx_bmc_lanes;
          Alcotest.test_case "dlx speculating sweeps" `Quick
            test_dlx_speculating_sweep_lanes;
          Alcotest.test_case "store against an untouched image" `Quick
            test_store_against_image_lanes;
          Alcotest.test_case "stops at the liveness bound" `Quick
            test_liveness_bound_lanes;
        ] );
      ("properties", List.map to_alcotest [ prop_lanes_equal_scalar ]);
    ]
