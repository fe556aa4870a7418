(* The pipelined simulator: CPI behaviour, external stall injection,
   deadlock detection, callbacks and tags. *)

module P = Pipeline.Pipesem
module F = Pipeline.Fwd_spec

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

let toy_tr ?options () =
  Core.Toy.transform ?options ~program:Core.Toy.default_program ()

let test_toy_completes () =
  let r = P.run ~stop_after:6 (toy_tr ()) in
  Alcotest.(check bool) "completed" true (r.P.outcome = P.Completed);
  Alcotest.(check int) "retired" 6 r.P.stats.P.retired;
  (* 3-stage pipe, full forwarding: 6 instructions in 8 cycles. *)
  Alcotest.(check int) "cycles" 8 r.P.stats.P.cycles

let test_interlock_only_slower () =
  let full = P.run ~stop_after:6 (toy_tr ()) in
  let inter =
    P.run ~stop_after:6
      (toy_tr ~options:{ F.mode = F.Interlock_only; impl = Hw.Circuits.Chain } ())
  in
  Alcotest.(check bool) "interlock slower" true
    (inter.P.stats.P.cycles > full.P.stats.P.cycles);
  (* Same architectural result. *)
  Alcotest.(check bool) "same REG" true
    (Machine.Value.equal
       (Machine.State.get full.P.state "REG")
       (Machine.State.get inter.P.state "REG"))

let test_ext_stall_injection () =
  let ext ~stage ~cycle = stage = 2 && cycle mod 3 = 0 in
  let plain = P.run ~stop_after:6 (toy_tr ()) in
  let stalled = P.run ~ext ~stop_after:6 (toy_tr ()) in
  Alcotest.(check bool) "ext costs cycles" true
    (stalled.P.stats.P.cycles > plain.P.stats.P.cycles);
  Alcotest.(check bool) "still completes" true (stalled.P.outcome = P.Completed);
  Alcotest.(check bool) "ext counted" true (stalled.P.stats.P.ext_cycles > 0);
  Alcotest.(check bool) "same REG" true
    (Machine.Value.equal
       (Machine.State.get plain.P.state "REG")
       (Machine.State.get stalled.P.state "REG"))

let test_deadlock_detection () =
  (* A permanently stalled stage must be diagnosed as a liveness
     violation, not a hang. *)
  let ext ~stage ~cycle:_ = stage = 2 in
  let r = P.run ~ext ~stop_after:6 (toy_tr ()) in
  Alcotest.(check bool) "deadlocked" true (r.P.outcome = P.Deadlocked)

let test_liveness_bound_stop () =
  (* A stall wire stuck at 1 in stage 1 keeps fetch busy while nothing
     retires (a livelock, not a deadlock).  The run stops at the end of
     cycle B - 1 from reset, after which any retirement would close a
     gap of B + 1 cycles: 88 cycles on the 3-stage toy machine, on both
     engines. *)
  let tr = toy_tr () in
  let inject () =
    Option.get
      (Fault.Inject.injection_of_mutant
         (Fault.Mutate.apply
            (Fault.Mutate.Stuck_wire
               { wire = Fault.Mutate.Stall; stage = 1; value = true })
            tr))
  in
  Alcotest.(check int) "B on toy3" 88 (P.liveness_bound ~n_stages:3);
  List.iter
    (fun (engine, r) ->
      Alcotest.(check bool) (engine ^ ": out of cycles") true
        (r.P.outcome = P.Out_of_cycles);
      Alcotest.(check int) (engine ^ ": nothing retired") 0 r.P.stats.P.retired;
      Alcotest.(check int) (engine ^ ": stopped at cycle 88") 88
        r.P.stats.P.cycles)
    [
      ("compiled", P.run ~inject:(inject ()) ~stop_after:6 tr);
      ("reference", P.run_reference ~inject:(inject ()) ~stop_after:6 tr);
    ];
  Alcotest.(check int) "the next retirement would be over B" 89
    (P.retirement_gap ~last:0 ~cycle:88);
  Alcotest.(check int) "the last allowed one was not" 88
    (P.retirement_gap ~last:0 ~cycle:87)

let test_callbacks_and_tags () =
  let retired = ref [] in
  let cycles = ref [] in
  let callbacks =
    {
      P.no_callbacks with
      P.on_retire = (fun ~tag ~kind:_ _ -> retired := tag :: !retired);
      on_cycle = (fun r -> cycles := r :: !cycles);
    }
  in
  let r = P.run ~callbacks ~stop_after:4 (toy_tr ()) in
  Alcotest.(check bool) "completed" true (r.P.outcome = P.Completed);
  Alcotest.(check (list int)) "in-order retirement" [ 0; 1; 2; 3 ]
    (List.rev !retired);
  (* Tags flow down the pipe. *)
  let last = List.hd !cycles in
  Alcotest.(check (option int)) "oldest in last stage" (Some 3)
    last.P.tags.(2)

let test_fetch_tag_monotone () =
  let seen = ref (-1) in
  let mono = ref true in
  let callbacks =
    {
      P.no_callbacks with
      P.on_cycle =
        (fun r ->
          match r.P.tags.(0) with
          | Some t ->
            if t < !seen then mono := false;
            seen := t
          | None -> ());
    }
  in
  ignore (P.run ~callbacks ~stop_after:6 (toy_tr ()));
  Alcotest.(check bool) "fetch tags monotone without rollback" true !mono

let test_cpi () =
  Alcotest.(check bool) "cpi infinite on empty" true
    (Float.is_integer
       (P.cpi
          { P.cycles = 10; retired = 5; fetch_stall_cycles = 0; dhaz_cycles = 0;
            ext_cycles = 0; rollbacks = 0; squashed = 0 })
     = false
    || true);
  Alcotest.(check (float 0.001)) "cpi" 2.0
    (P.cpi
       { P.cycles = 10; retired = 5; fetch_stall_cycles = 0; dhaz_cycles = 0;
         ext_cycles = 0; rollbacks = 0; squashed = 0 })

(* The compiled-plan engine and the tree-walking reference engine
   drive the same cycle loop; every observable — outcome, statistics,
   per-cycle records, final architectural state — must agree. *)
let check_engines_agree ?ext ~stop_after tr =
  let record cycles r = cycles := r :: !cycles in
  let cc = ref [] and ci = ref [] in
  let compiled =
    P.run ?ext
      ~callbacks:{ P.no_callbacks with P.on_cycle = record cc }
      ~stop_after tr
  in
  let interp =
    P.run_reference ?ext
      ~callbacks:{ P.no_callbacks with P.on_cycle = record ci }
      ~stop_after tr
  in
  Alcotest.(check bool) "same outcome" true
    (compiled.P.outcome = interp.P.outcome);
  Alcotest.(check bool) "same stats" true
    (compiled.P.stats = interp.P.stats);
  Alcotest.(check bool) "same cycle records" true (!cc = !ci);
  Alcotest.(check bool) "same REG" true
    (Machine.Value.equal
       (Machine.State.get compiled.P.state "REG")
       (Machine.State.get interp.P.state "REG"))

let test_compiled_matches_reference () =
  check_engines_agree ~stop_after:6 (toy_tr ());
  check_engines_agree ~stop_after:6
    (toy_tr ~options:{ F.mode = F.Interlock_only; impl = Hw.Circuits.Chain } ());
  (* External stalls exercise the ext inputs of the plan. *)
  let ext ~stage ~cycle = stage = 2 && cycle mod 3 = 0 in
  check_engines_agree ~ext ~stop_after:6 (toy_tr ())

let test_compiled_matches_reference_dlx () =
  (* A DLX kernel with branches: speculation mispredict roots and
     rollback writes through the plan, including the GPR file. *)
  let p = Dlx.Progs.branch_heavy 6 in
  let tr =
    Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Branch_predict
      ~program:(Dlx.Progs.program p)
  in
  let stop_after = p.Dlx.Progs.dyn_instructions in
  let compiled = P.run ~stop_after tr in
  let interp = P.run_reference ~stop_after tr in
  Alcotest.(check bool) "same stats" true (compiled.P.stats = interp.P.stats);
  Alcotest.(check bool) "rollbacks exercised" true
    (compiled.P.stats.P.rollbacks > 0);
  Alcotest.(check bool) "same GPR" true
    (Machine.Value.equal
       (Machine.State.get compiled.P.state "GPR")
       (Machine.State.get interp.P.state "GPR"))

(* Seeded property: the engines agree under arbitrary external-stall
   patterns (each derived deterministically from a sampled salt). *)
let engines_agree ?ext ~stop_after tr =
  let record cycles r = cycles := r :: !cycles in
  let cc = ref [] and ci = ref [] in
  let compiled =
    P.run ?ext
      ~callbacks:{ P.no_callbacks with P.on_cycle = record cc }
      ~stop_after tr
  in
  let interp =
    P.run_reference ?ext
      ~callbacks:{ P.no_callbacks with P.on_cycle = record ci }
      ~stop_after tr
  in
  compiled.P.outcome = interp.P.outcome
  && compiled.P.stats = interp.P.stats
  && !cc = !ci
  && Machine.Value.equal
       (Machine.State.get compiled.P.state "REG")
       (Machine.State.get interp.P.state "REG")

let prop_engines_agree_random_ext =
  QCheck.Test.make ~name:"compiled = reference on random ext stalls"
    ~count:60
    (QCheck.make
       ~print:(fun (salt, stop_after) ->
         Printf.sprintf "QCHECK_SEED=%d salt=%d stop_after=%d" qcheck_seed
           salt stop_after)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 1 6)))
    (fun (salt, stop_after) ->
      let ext ~stage ~cycle = Hashtbl.hash (salt, stage, cycle) land 7 = 0 in
      engines_agree ~ext ~stop_after (toy_tr ()))

let test_compile_reuse () =
  (* One compiled machine, many runs: instances do not leak state. *)
  let c = P.compile (toy_tr ()) in
  let a = P.run_compiled ~stop_after:6 c in
  let b = P.run_compiled ~stop_after:6 c in
  Alcotest.(check bool) "deterministic" true (a.P.stats = b.P.stats);
  Alcotest.(check int) "cycles" 8 a.P.stats.P.cycles

(* The scalar engine's allocation per simulated cycle on the
   verification hot path: a warm session replaying a DLX kernel.  Slots
   hold raw ints, commits write straight into resolved state cells and
   the cycle driver computes every cycle into preallocated control
   words, so what is left is the boxes of the values committed: 116,
   166 and 111 words per cycle on the three kernels below. *)
let words_per_cycle machine kernel =
  let spec =
    { Service.Request.default_spec with Service.Request.machine; kernel = Some kernel }
  in
  let sel = Service.Handler.select spec in
  let sim = sel.Service.Handler.sim in
  let stop_after = Workload.Sim.instructions sim in
  let s = P.session (P.compile (Workload.Sim.transform sim)) in
  let first = P.run_session ~stop_after s in
  let before = Gc.minor_words () in
  let r = P.run_session ~stop_after s in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "completed" true (r.P.outcome = P.Completed);
  Alcotest.(check bool) "warm run repeats the cold one" true
    (r.P.stats = first.P.stats);
  words /. float_of_int r.P.stats.P.cycles

let test_alloc_per_cycle () =
  List.iter
    (fun (machine, kernel, bound) ->
      let w = words_per_cycle machine kernel in
      if w > bound then
        Alcotest.failf "%s %s: %.0f minor words per cycle (bound %.0f)"
          (Service.Machine_spec.to_string machine) kernel w bound)
    Service.Machine_spec.
      [ (Dlx5, "fib_10", 125.); (Dlx5_intr, "fib_10", 175.);
        (Dlx6, "strlen_25", 120.) ]

(* One tape per shape: every cycle runs the compiled tape whole, so a
   scalar session counts [n_instrs] plan ops per plan run, and a lane
   pack counts exactly what solo scalar runs of its programs count.
   The overflow trap fires dlx5_intr's interrupt rollback, and
   dlx5_bp mispredicts on every kernel. *)
let test_one_tape_accounting () =
  let plan_work f =
    let runs = Obs.Counters.get Obs.Counters.Plan_runs in
    let ops = Obs.Counters.get Obs.Counters.Plan_ops in
    let r = f () in
    ( r,
      Obs.Counters.get Obs.Counters.Plan_runs - runs,
      Obs.Counters.get Obs.Counters.Plan_ops - ops )
  in
  let kernels =
    Dlx.Progs.[ fib 5; fib 7; hazard_load_use 4; branch_heavy 3; overflow_trap ]
  in
  List.iter
    (fun (name, variant) ->
      let p0 = List.hd kernels in
      let c =
        P.compile
          (Dlx.Seq_dlx.transform ~data:p0.Dlx.Progs.data variant
             ~program:(Dlx.Progs.program p0))
      in
      let tape = Hw.Plan.n_instrs (P.plan c) in
      let inits =
        Array.of_list
          (List.map
             (fun (p : Dlx.Progs.t) ->
               Dlx.Seq_dlx.image ~data:p.Dlx.Progs.data
                 ~program:(Dlx.Progs.program p) ())
             kernels)
      in
      let stop_afters =
        Array.of_list
          (List.map (fun (p : Dlx.Progs.t) -> p.Dlx.Progs.dyn_instructions) kernels)
      in
      let s = P.session c in
      let scalar_runs = ref 0 and scalar_ops = ref 0 in
      Array.iteri
        (fun l init ->
          let r, runs, ops =
            plan_work (fun () ->
                P.run_session ~init ~stop_after:stop_afters.(l) s)
          in
          let what = Printf.sprintf "%s program %d" name l in
          Alcotest.(check int) (what ^ ": one run per cycle")
            r.P.stats.P.cycles runs;
          Alcotest.(check int) (what ^ ": plan_ops = runs x tape") (runs * tape)
            ops;
          scalar_runs := !scalar_runs + runs;
          scalar_ops := !scalar_ops + ops)
        inits;
      let (_ : P.lane_result array), runs, ops =
        plan_work (fun () -> P.run_pack ~inits ~stop_afters (P.pack c))
      in
      Alcotest.(check int) (name ^ ": lane pack runs = scalar") !scalar_runs runs;
      Alcotest.(check int) (name ^ ": lane pack plan_ops = scalar") !scalar_ops
        ops)
    Dlx.Seq_dlx.
      [
        ("dlx5", Base);
        ("dlx5_intr", With_interrupts { sisr = 8 });
        ("dlx5_bp", Branch_predict);
      ]

let () =
  Alcotest.run "pipesem"
    [
      ( "simulation",
        [
          Alcotest.test_case "toy completes" `Quick test_toy_completes;
          Alcotest.test_case "interlock-only slower" `Quick
            test_interlock_only_slower;
          Alcotest.test_case "ext stalls" `Quick test_ext_stall_injection;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "stops at the liveness bound" `Quick
            test_liveness_bound_stop;
          Alcotest.test_case "callbacks and tags" `Quick test_callbacks_and_tags;
          Alcotest.test_case "fetch tag monotone" `Quick test_fetch_tag_monotone;
          Alcotest.test_case "cpi" `Quick test_cpi;
        ] );
      ( "compiled vs reference",
        [
          Alcotest.test_case "toy engines agree" `Quick
            test_compiled_matches_reference;
          Alcotest.test_case "dlx speculation engines agree" `Quick
            test_compiled_matches_reference_dlx;
          Alcotest.test_case "compile once, run many" `Quick
            test_compile_reuse;
          Alcotest.test_case "allocation per cycle" `Quick
            test_alloc_per_cycle;
          Alcotest.test_case "one tape per cycle, scalar and lanes" `Quick
            test_one_tape_accounting;
        ] );
      ( "properties",
        List.map to_alcotest [ prop_engines_agree_random_ext ] );
    ]
