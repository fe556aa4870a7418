(* Differential fuzzing: random DLX programs (Workload.Gen) and random
   generated machines (Proof_engine.Machine_gen) run through the
   sequential reference and the pipelined machine, asserting
   committed-state equality — serially and fanned out over the domain
   pool.  Failures print the qcheck seed and the offending program's
   disassembly so they replay with `QCHECK_SEED=<n> dune runtest`. *)

module Pool = Exec.Pool
module C = Proof_engine.Consistency

(* Explicit qcheck seeding (see test_parallel.ml). *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 421_337

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

(* ------------------------------------------------------------------ *)
(* Random DLX programs: one case = (generator seed, profile, length)   *)
(* ------------------------------------------------------------------ *)

let profiles =
  [
    ("typical", Workload.Gen.typical);
    ("alu_dep", Workload.Gen.alu_only ~dependency_bias:0.9);
    ("alu_indep", Workload.Gen.alu_only ~dependency_bias:0.0);
    ("memory", Workload.Gen.memory_heavy);
    ("branchy", Workload.Gen.branch_heavy ~taken_frac:0.6);
  ]

type case = { seed : int; profile : string; length : int }

let program_of { seed; profile; length } =
  Workload.Gen.generate ~seed ~length (List.assoc profile profiles)

let disasm (p : Dlx.Progs.t) =
  String.concat "\n"
    (List.mapi
       (fun i w ->
         Printf.sprintf "  %3d: %08x  %s" i w
           (match Dlx.Isa.decode w with
           | Some insn -> Format.asprintf "%a" Dlx.Isa.pp insn
           | None -> ".word"))
       (Dlx.Progs.program p))

let pp_case case =
  Printf.sprintf "QCHECK_SEED=%d seed=%d profile=%s length=%d\n%s" qcheck_seed
    case.seed case.profile case.length
    (disasm (program_of case))

(* Run one case differentially: the golden sequential trace is the
   reference (config.verify), the pipelined machine the implementation;
   the consistency checker compares every committed register write and
   the final architectural state. *)
let differential ?(config = Workload.Sweep.default) case =
  let p = program_of case in
  let sim = Workload.Sweep.sim_of_program ~config p in
  Workload.Sim.verify sim

let check_case ?config case =
  let report = differential ?config case in
  if C.ok report then true
  else
    QCheck.Test.fail_reportf "inconsistent:@.%a@.%s" C.pp_report report
      (pp_case case)

let arb_case =
  QCheck.make ~print:pp_case
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* profile = oneofl (List.map fst profiles) in
      let+ length = int_range 20 60 in
      { seed; profile; length })

let prop_random_programs_consistent =
  QCheck.Test.make ~name:"random DLX programs: pipelined = sequential"
    ~count:25 arb_case check_case

let prop_random_programs_consistent_bp =
  (* The speculating variant: squashes and rollbacks must never leak
     into the committed state. *)
  QCheck.Test.make
    ~name:"random DLX programs: branch-predict pipeline = sequential"
    ~count:15 arb_case
    (check_case
       ~config:
         {
           Workload.Sweep.default with
           Workload.Sweep.variant = Dlx.Seq_dlx.Branch_predict;
         })

(* ------------------------------------------------------------------ *)
(* Pool-driven fuzz sweeps                                             *)
(* ------------------------------------------------------------------ *)

let test_fuzz_sweep_through_pool () =
  (* 16 cases fanned out over 4 domains; the reports must be identical
     to the serial sweep, and all consistent. *)
  let cases =
    List.init 16 (fun i ->
        {
          seed = (i * 37) + 5;
          profile = fst (List.nth profiles (i mod List.length profiles));
          length = 20 + (i * 2);
        })
  in
  let serial = List.map differential cases in
  let parallel =
    Pool.with_pool ~size:4 (fun pool -> Pool.map pool differential cases)
  in
  List.iteri
    (fun i (s, p) ->
      let case = List.nth cases i in
      if not (C.ok s) then
        Alcotest.failf "case %d inconsistent:\n%s" i (pp_case case);
      Alcotest.(check bool)
        (Printf.sprintf "case %d: parallel report = serial" i)
        true (s = p))
    (List.combine serial parallel)

let test_machine_space_through_pool () =
  (* Machine_gen.check_many: the machine-space BMC sweep over the
     pool, bit-identical to the serial sweep and all Ok. *)
  let seeds = List.init 12 (fun i -> i + 1) in
  let serial = Proof_engine.Machine_gen.check_many ~program_length:20 seeds in
  let parallel =
    Pool.with_pool ~size:4 (fun pool ->
        Proof_engine.Machine_gen.check_many ~pool ~program_length:20 seeds)
  in
  Alcotest.(check bool) "parallel = serial" true (serial = parallel);
  List.iter
    (fun (seed, result) ->
      match result with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "machine seed %d: %s" seed msg)
    parallel

let test_bmc_through_pool () =
  (* The exhaustive program sweep: failures must come back in
     enumeration order at any pool size.  The sabotaged build raises on
     a deterministic subset of programs, so both runs must report the
     same programs in the same order. *)
  let alphabet =
    [
      Core.Toy.encode ~dst:1 ~src1:1 ~src2:2;
      Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
      Core.Toy.encode ~dst:1 ~src1:2 ~src2:2;
    ]
  in
  let build program =
    if List.fold_left ( + ) 0 program mod 3 = 0 then failwith "injected";
    Core.Toy.transform ~program ()
  in
  let run ?pool () =
    Proof_engine.Bmc.exhaustive ?pool ~max_failures:5 ~build ~alphabet
      ~length:3 ()
  in
  let serial = run () in
  let parallel = Pool.with_pool ~size:4 (fun pool -> run ~pool ()) in
  Alcotest.(check int) "27 programs" 27 serial.Proof_engine.Bmc.programs;
  Alcotest.(check bool) "failures found" true
    (List.length serial.Proof_engine.Bmc.failures > 0);
  Alcotest.(check bool) "parallel outcome = serial" true (serial = parallel)

let test_bmc_batched_equals_rebuild () =
  (* The compile-once BMC path ([exhaustive ~load]) must be
     observationally identical to the rebuild-per-program path — same
     outcome record, same failure enumeration order — on machines it
     was not written against, serial and through a pool.  The
     deterministic work counters (the WORK class) must also agree: the batched
     path changes how plans are bound and sessions cached, never how
     much semantic work each program costs. *)
  let module G = Proof_engine.Machine_gen in
  let counted f =
    Obs.Counters.reset ();
    let r = f () in
    (r, Obs.Counters.work_snapshot ())
  in
  let work = Alcotest.(list (pair string int)) in
  List.iter
    (fun seed ->
      let p = G.sample_params ~seed in
      let build program =
        Pipeline.Transform.run ~hints:(G.hints p) (G.machine p ~program)
      in
      let load program = G.image p ~program in
      let alphabet =
        [
          G.encode p ~late:false ~dst:1 ~src1:1 ~src2:2;
          G.encode p ~late:true ~dst:2 ~src1:1 ~src2:1;
          G.encode p ~late:false ~dst:1 ~src1:2 ~src2:1;
        ]
      in
      let run ?pool ?load () =
        Proof_engine.Bmc.exhaustive ?pool ?load ~build ~alphabet ~length:2 ()
      in
      let rebuild, w_rebuild = counted (fun () -> run ()) in
      let batched, w_batched = counted (fun () -> run ~load ()) in
      let pooled, w_pooled =
        counted (fun () ->
            Pool.with_pool ~size:4 (fun pool -> run ~pool ~load ()))
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: programs" seed)
        9 rebuild.Proof_engine.Bmc.programs;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: batched = rebuild" seed)
        true (batched = rebuild);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: pooled batched = rebuild" seed)
        true (pooled = rebuild);
      Alcotest.check work
        (Printf.sprintf "seed %d: WORK batched = rebuild" seed)
        w_rebuild w_batched;
      Alcotest.check work
        (Printf.sprintf "seed %d: WORK pooled batched = rebuild" seed)
        w_rebuild w_pooled)
    [ 11; 222; 3333 ]

(* ------------------------------------------------------------------ *)
(* The machine space itself, seeded                                    *)
(* ------------------------------------------------------------------ *)

let prop_random_machines_consistent =
  QCheck.Test.make ~name:"random machines: pipelined = sequential" ~count:12
    (QCheck.make
       ~print:(fun seed ->
         Printf.sprintf
           "QCHECK_SEED=%d machine seed=%d (replay: Machine_gen.check_one \
            ~seed:%d ~program_length:25)"
           qcheck_seed seed seed)
       QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      match Proof_engine.Machine_gen.check_one ~seed ~program_length:25 with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let () =
  Alcotest.run "fuzz"
    [
      ( "pool sweeps",
        [
          Alcotest.test_case "program fuzz through pool" `Quick
            test_fuzz_sweep_through_pool;
          Alcotest.test_case "machine space through pool" `Quick
            test_machine_space_through_pool;
          Alcotest.test_case "bmc failure order through pool" `Quick
            test_bmc_through_pool;
          Alcotest.test_case "bmc batched = rebuild" `Quick
            test_bmc_batched_equals_rebuild;
        ] );
      ( "properties",
        List.map to_alcotest
          [
            prop_random_programs_consistent;
            prop_random_programs_consistent_bp;
            prop_random_machines_consistent;
          ] );
    ]
