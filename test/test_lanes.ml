(* The lane-aware differential battery: every lane of a pack, checked
   by Consistency.check_lanes against its own sequential reference,
   must return exactly the report its one-lane check returns —
   violation texts, lemma-1 and stall-engine evidence, final-state
   match, liveness, statistics — with the same deterministic WORK
   counters, on random machines, their structural mutants and random
   packings, serially and through the domain pool.  Failures print the
   qcheck seed so they replay with `QCHECK_SEED=<n> dune runtest`. *)

module Pool = Exec.Pool
module C = Proof_engine.Consistency
module G = Proof_engine.Machine_gen
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
(* The two ways of checking a batch                                    *)
(* ------------------------------------------------------------------ *)

(* Each program alone: one one-lane check per program. *)
let one_lane shape ~references ~inits =
  Array.to_list
    (Array.mapi
       (fun l (r : Machine.Seqsem.trace) ->
         C.check_batched ~max_instructions:r.Machine.Seqsem.instructions
           ~reference:r ~init:inits.(l) shape)
       references)

let rec chunk n l =
  if l = [] then []
  else
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> split (k - 1) (x :: acc) tl
    in
    let pack, rest = split n [] l in
    pack :: chunk n rest

(* Packs of up to Hw.Lanes.max_lanes consecutive programs, one pack
   per pool task. *)
let packed ?pool shape ~references ~inits =
  let lanes = List.combine (Array.to_list references) (Array.to_list inits) in
  Exec.Pool.map_opt pool
    (fun pack ->
      let references = Array.of_list (List.map fst pack) in
      let inits = Array.of_list (List.map snd pack) in
      Array.to_list
        (Array.map
           (fun v -> v.C.lv_report)
           (C.check_lanes ~references ~inits shape)))
    (chunk Hw.Lanes.max_lanes lanes)
  |> List.concat

(* Reports and WORK of the pack runs, serial and at -j 4, against the
   one-lane checks; [Error] when the checks raise (a mutant can break
   the co-simulation), which both ways must then do. *)
let compare_batch ~what shape ~references ~inits =
  let run f = counted (fun () -> match f () with r -> Ok r | exception e -> Error e) in
  let solo, w_solo = run (fun () -> one_lane shape ~references ~inits) in
  let serial, w_serial = run (fun () -> packed shape ~references ~inits) in
  let pooled, w_pooled =
    run (fun () ->
        Pool.with_pool ~size:4 (fun pool -> packed ~pool shape ~references ~inits))
  in
  match (solo, serial, pooled) with
  | Ok solo, Ok serial, Ok pooled ->
    List.iteri
      (fun l r ->
        if List.nth serial l <> r then
          Alcotest.failf "%s: lane %d report differs from its one-lane check" what l;
        if List.nth pooled l <> r then
          Alcotest.failf "%s: lane %d pooled report differs" what l)
      solo;
    Alcotest.check work (what ^ ": WORK packs = one-lane") w_solo w_serial;
    Alcotest.check work (what ^ ": WORK pooled packs = one-lane") w_solo w_pooled;
    solo
  | Error _, Error _, Error _ -> []
  | _ -> Alcotest.failf "%s: packs and one-lane checks disagree on raising" what

(* A sampled machine's programs with their references, from the
   program's own (unmutated) sequential machine. *)
let gen_batch p ~max_instructions programs =
  let references =
    Array.of_list
      (List.map
         (fun program ->
           Machine.Seqsem.run ~max_instructions (G.machine p ~program))
         programs)
  in
  let inits = Array.of_list (List.map (fun program -> G.image p ~program) programs) in
  (references, inits)

let gen_transform p program =
  Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program)

(* ------------------------------------------------------------------ *)
(* Property: pack lanes = one-lane checks on random machines           *)
(* ------------------------------------------------------------------ *)

(* One case: a sampled machine, an alphabet of [width] distinct
   encodings and a program length — so the batch holds width^length
   programs (1..64, crossing the 62-lane pack boundary at 63 and 64). *)
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

let rec enumerate alphabet = function
  | 0 -> [ [] ]
  | n ->
    List.concat_map
      (fun rest -> List.map (fun i -> i :: rest) alphabet)
      (enumerate alphabet (n - 1))

let check_lane_case case =
  let p = G.sample_params ~seed:case.mseed in
  let alphabet =
    List.init case.width (fun i ->
        G.encode p ~late:(i land 1 = 1) ~dst:((i mod 3) + 1) ~src1:1
          ~src2:((i mod 2) + 1))
  in
  let programs = enumerate alphabet case.length in
  let references, inits = gen_batch p ~max_instructions:(case.length + 4) programs in
  let t = gen_transform p (List.hd programs) in
  let what = pp_lane_case case in
  ignore (compare_batch ~what (C.shape t) ~references ~inits);
  (* The first structural mutants of the sampled machine, checked
     against the unmutated references. *)
  List.iter
    (fun (m : Mutate.mutant) ->
      ignore
        (compare_batch
           ~what:(what ^ " mutant " ^ m.Mutate.mut_id)
           (C.shape m.Mutate.mut_tr) ~references ~inits))
    (List.filteri
       (fun i _ -> i < 2)
       (List.filter
          (fun (m : Mutate.mutant) -> m.Mutate.mut_structural)
          (Mutate.enumerate ~transients:0 ~seed:case.mseed t)));
  true

let prop_packs_equal_one_lane =
  QCheck.Test.make
    ~name:"pack lanes = one-lane checks (report + WORK), serial and -j 4"
    ~count:12 arb_lane_case check_lane_case

(* ------------------------------------------------------------------ *)
(* Pack sizes 1, 2, 61, 62, 63, 64                                     *)
(* ------------------------------------------------------------------ *)

(* Distinct programs, deterministic in the lane index.  Any garbage
   bit leaking from an unused lane shows up as a report difference. *)
let sized_batch count =
  let p = G.sample_params ~seed:42 in
  let programs =
    List.init count (fun i ->
        List.init 4 (fun j ->
            G.encode p ~late:((i + j) land 1 = 1)
              ~dst:((((i * 7) + j) mod 3) + 1)
              ~src1:(((i + j) mod 2) + 1)
              ~src2:((i mod 2) + 1)))
  in
  let references, inits = gen_batch p ~max_instructions:8 programs in
  (C.shape (gen_transform p (List.hd programs)), references, inits)

let test_partial_packs () =
  List.iter
    (fun count ->
      let shape, references, inits = sized_batch count in
      let reports =
        compare_batch ~what:(Printf.sprintf "%d programs" count) shape
          ~references ~inits
      in
      Alcotest.(check int) (Printf.sprintf "%d reports" count) count
        (List.length reports))
    [ 1; 2; 61; 62 ]

(* 63 and 64 programs cross the 62-lane pack boundary: a full pack
   plus a 1- or 2-lane remainder pack. *)
let test_chunk_boundaries () =
  List.iter
    (fun count ->
      let shape, references, inits = sized_batch count in
      let reports =
        compare_batch ~what:(Printf.sprintf "%d programs" count) shape
          ~references ~inits
      in
      Alcotest.(check int) (Printf.sprintf "%d reports" count) count
        (List.length reports);
      Alcotest.(check bool) (Printf.sprintf "%d programs consistent" count) true
        (List.for_all C.ok reports))
    [ 63; 64 ]

(* ------------------------------------------------------------------ *)
(* Directed divergence: one lane stalls differently                    *)
(* ------------------------------------------------------------------ *)

(* Pack three copies of a hazard-free program with one program whose
   late-unit dependency forces an interlock stall: the odd lane's run
   leaves the pack's majority, and every lane must still report what
   its one-lane check reports. *)
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
  let references, inits =
    gen_batch p ~max_instructions:(List.length prog_a + 4)
      [ prog_a; prog_a; prog_a; prog_b ]
  in
  let shape = C.shape (gen_transform p prog_a) in
  match compare_batch ~what:"divergent pack" shape ~references ~inits with
  | [ a; a'; a''; b ] ->
    List.iter
      (fun r -> Alcotest.(check bool) "consistent" true (C.ok r))
      [ a; a'; a''; b ];
    Alcotest.(check bool) "majority lanes agree" true (a = a' && a = a'');
    Alcotest.(check bool) "the odd lane stalls" true
      (b.C.stats.Pipeline.Pipesem.dhaz_cycles
      > a.C.stats.Pipeline.Pipesem.dhaz_cycles)
  | _ -> Alcotest.fail "expected four reports"

(* ------------------------------------------------------------------ *)
(* Evidence: a faulty machine's lanes = its one-lane checks            *)
(* ------------------------------------------------------------------ *)

(* Structural mutants of the toy machine over every length-3 program
   of a small alphabet: each lane's violations, lemma-1 and
   stall-engine evidence must be those of its one-lane check.  This
   is the pack's counterexample contract. *)
let test_faulty_evidence_equality () =
  let alphabet =
    [
      Core.Toy.encode ~dst:1 ~src1:1 ~src2:2;
      Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
      Core.Toy.encode ~dst:1 ~src1:2 ~src2:2;
    ]
  in
  let programs = enumerate alphabet 3 in
  let references =
    Array.of_list
      (List.map
         (fun program ->
           Machine.Seqsem.run ~max_instructions:7
             (Core.Toy.transform ~program ()).Pipeline.Transform.base)
         programs)
  in
  let inits =
    Array.of_list (List.map (fun program -> Core.Toy.image ~program) programs)
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
        let shape = C.shape (Mutate.rewrite m.Mutate.mut_fault (Core.Toy.transform ~program:(List.hd programs) ())) in
        let reports =
          compare_batch ~what:("mutant " ^ m.Mutate.mut_id) shape ~references ~inits
        in
        if List.exists (fun r -> r.C.violations <> []) reports then incr detected
      end)
    structurals;
  Alcotest.(check bool) "some mutants produced counterexamples" true
    (!detected > 0)

(* ------------------------------------------------------------------ *)
(* DLX: register files, hazards and speculation through the lanes      *)
(* ------------------------------------------------------------------ *)

let test_dlx_bmc_lanes () =
  (* 64 DLX programs over an ALU alphabet, the 62-lane boundary
     crossed, serial and pooled. *)
  let alphabet =
    Dlx.Isa.
      [
        encode (Add (1, 1, 2));
        encode (Addi (2, 1, 1));
        encode (Sub (1, 2, 1));
        encode (Xor (3, 1, 2));
      ]
  in
  let programs = enumerate alphabet 3 in
  let build program = Dlx.Seq_dlx.transform Dlx.Seq_dlx.Base ~program in
  let references =
    Array.of_list
      (List.map
         (fun program ->
           Machine.Seqsem.run ~max_instructions:7
             (build program).Pipeline.Transform.base)
         programs)
  in
  let inits =
    Array.of_list (List.map (fun program -> Dlx.Seq_dlx.image ~program ()) programs)
  in
  let reports =
    compare_batch ~what:"dlx" (C.shape (build (List.hd programs))) ~references
      ~inits
  in
  Alcotest.(check int) "64 programs" 64 (List.length reports);
  Alcotest.(check bool) "no counterexamples" true (List.for_all C.ok reports)

let test_dlx_speculating_sweep_lanes () =
  (* Branch-predicting sweeps roll back and squash: the pack's
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
  (* The span trace tells a pack run from one-lane runs: a pack
     records [pipesem.run_lanes] and no one-lane [pipesem.run]. *)
  Obs.Span.set_enabled true;
  let lanes, w_lanes = counted (fun () -> run ~lanes:true ()) in
  let spans = List.map (fun r -> r.Obs.Span.span_name) (Obs.Span.records ()) in
  Obs.Span.set_enabled false;
  Alcotest.(check bool)
    "lane engine ran" true
    (List.mem "pipesem.run_lanes" spans);
  Alcotest.(check bool)
    "no one-lane runs" false (List.mem "pipesem.run" spans);
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
  Alcotest.(check bool) "no one-lane runs" false
    (List.mem "pipesem.run" spans);
  Alcotest.(check (list bool)) "lane verdicts" expected
    (Array.to_list (Array.map (fun v -> v.C.lv_ok) verdicts))

(* ------------------------------------------------------------------ *)
(* The liveness bound ends a lane's run where it ends a one-lane run   *)
(* ------------------------------------------------------------------ *)

(* A hook-free livelock: dlx5_intr with its interrupt check tied to
   "taken" and made non-retiring squashes and refetches the instruction
   in stage 4 on every cycle it gets there, so fetch stays busy and
   nothing retires.  Lanes that must retire stop at the liveness bound
   (104 cycles on five stages), exactly like the one-lane run of each. *)
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
  let lanes =
    Pipeline.Pipesem.run_pack
      ~inits:(Array.map (fun _ -> []) stop_afters)
      ~stop_afters (Pipeline.Pipesem.pack c)
  in
  Alcotest.(check int) "B on five stages" 104
    (Pipeline.Pipesem.liveness_bound ~n_stages:5);
  Array.iteri
    (fun l stop_after ->
      let scalar = Pipeline.Pipesem.run_compiled ~stop_after c in
      let lane = lanes.(l) in
      let name = Printf.sprintf "lane %d (stop_after %d)" l stop_after in
      Alcotest.(check bool) (name ^ ": outcome = one-lane") true
        (lane.Pipeline.Pipesem.lr_outcome = scalar.Pipeline.Pipesem.outcome);
      Alcotest.(check bool) (name ^ ": stats = one-lane") true
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
      ("properties", List.map to_alcotest [ prop_packs_equal_one_lane ]);
    ]
