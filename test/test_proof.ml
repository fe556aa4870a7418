(* The proof engine: obligation generation and discharge, fault
   injection (the checkers must catch a sabotaged machine), exhaustive
   bounded checking, and PVS emission. *)

module O = Proof_engine.Obligation
module C = Proof_engine.Consistency
module T = Pipeline.Transform

let toy_tr () = Core.Toy.transform ~program:Core.Toy.default_program ()

let dlx_tr (p : Dlx.Progs.t) =
  Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
    ~program:(Dlx.Progs.program p)

let test_generate_counts () =
  let tr = dlx_tr (Dlx.Progs.fib 5) in
  let obs = O.generate tr in
  let with_prefix p =
    List.length
      (List.filter
         (fun (o : O.obligation) ->
           String.length o.O.ob_id >= String.length p
           && String.sub o.O.ob_id 0 (String.length p) = p)
         obs)
  in
  Alcotest.(check int) "lemma 1" 3 (with_prefix "L1.");
  Alcotest.(check int) "engine" 3 (with_prefix "SE.");
  (* 3 rules (GPRa, GPRb, DPC) x 3 obligations each. *)
  Alcotest.(check int) "lemma 2" 3 (with_prefix "L2.");
  Alcotest.(check int) "lemma 3" 3 (with_prefix "L3.");
  Alcotest.(check int) "top" 3 (with_prefix "TOP.");
  (* 4 visible registers. *)
  Alcotest.(check int) "consistency" 4 (with_prefix "DC.");
  Alcotest.(check int) "liveness" 1 (with_prefix "LV")

let test_discharge_toy () =
  let obs = O.discharge_all (toy_tr ()) in
  Alcotest.(check bool) "all discharged" true (O.all_discharged obs);
  (* The small machine additionally earns symbolic all-data evidence on
     its data-consistency obligations. *)
  let dc_reg =
    List.find (fun (o : O.obligation) -> o.O.ob_id = "DC.REG") obs
  in
  match dc_reg.O.ob_status with
  | O.Discharged msg ->
    let has sub =
      let n = String.length sub and h = String.length msg in
      let rec go i = i + n <= h && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "symbolic evidence" true (has "ALL initial data")
  | O.Pending | O.Failed _ -> Alcotest.fail "DC.REG not discharged"

let test_discharge_dlx () =
  let p = Dlx.Progs.fib 8 in
  let reference =
    Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p) ~instructions:p.Dlx.Progs.dyn_instructions
  in
  let obs =
    O.discharge_all ~max_instructions:p.Dlx.Progs.dyn_instructions ~reference
      (dlx_tr p)
  in
  Alcotest.(check bool) "all discharged" true (O.all_discharged obs)

(* ---------------- Core.verify ---------------- *)

let sim_cycles f =
  let before = Obs.Counters.get Obs.Counters.Sim_cycles in
  let r = f () in
  (r, Obs.Counters.get Obs.Counters.Sim_cycles - before)

let live_report =
  let pp ppf (r : Proof_engine.Liveness.report) =
    Format.fprintf ppf "{checked=%d; max_gap=%d; bound=%d; idle=%d; %s}"
      r.Proof_engine.Liveness.checked r.Proof_engine.Liveness.max_gap
      r.Proof_engine.Liveness.bound r.Proof_engine.Liveness.idle
      (match r.Proof_engine.Liveness.outcome with
      | Pipeline.Pipesem.Completed -> "completed"
      | Pipeline.Pipesem.Deadlocked -> "deadlocked"
      | Pipeline.Pipesem.Out_of_cycles -> "out of cycles")
  in
  Alcotest.testable pp ( = )

(* One verify simulates exactly what one co-simulation does, and its
   liveness report — read off that run — equals a standalone liveness
   run of the same plan, field for field. *)
let check_one_run ?reference ?max_instructions ?inject ~compiled name tr =
  let inject () = Option.map (fun f -> f ()) inject in
  match
    sim_cycles (fun () ->
        Core.verify_result ?reference ?max_instructions ?inject:(inject ())
          ~compiled tr)
  with
  | Error _, _ -> None
  | Ok v, verify_cycles ->
    let (), cosim_cycles =
      sim_cycles (fun () ->
          ignore
            (C.check ?reference ?max_instructions ?inject:(inject ()) ~compiled
               tr))
    in
    Alcotest.(check int) (name ^ ": one co-simulation") cosim_cycles
      verify_cycles;
    Alcotest.check live_report
      (name ^ ": liveness = a standalone liveness run")
      (Proof_engine.Liveness.check ?inject:(inject ()) ~compiled
         ~stop_after:v.Core.consistency.C.instructions tr)
      v.Core.liveness;
    Some v

let test_verify_simulates_once () =
  let dlx variant (p : Dlx.Progs.t) =
    let program = Dlx.Progs.program p in
    let n = p.Dlx.Progs.dyn_instructions in
    ( Dlx.Seq_dlx.transform ~data:p.Dlx.Progs.data variant ~program,
      Some
        (Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data variant ~program
           ~instructions:n),
      Some n )
  in
  let intr = Dlx.Seq_dlx.With_interrupts { sisr = 8 } in
  List.iter
    (fun (name, (tr, reference, max_instructions)) ->
      let compiled = Pipeline.Pipesem.compile tr in
      match check_one_run ?reference ?max_instructions ~compiled name tr with
      | Some v -> Alcotest.(check bool) (name ^ " verified") true (Core.verified v)
      | None -> Alcotest.failf "%s: verification aborted" name)
    [
      ("toy3", (toy_tr (), None, None));
      ("dlx5", dlx Dlx.Seq_dlx.Base (Dlx.Progs.fib 8));
      ("dlx5_bp", dlx Dlx.Seq_dlx.Branch_predict (Dlx.Progs.fib 8));
      ("dlx5_intr", dlx intr (Dlx.Progs.fib 8));
      ("dlx5_intr overflow", dlx intr Dlx.Progs.overflow_trap);
    ]

let toy_mutants () =
  let tr = toy_tr () in
  (tr, Fault.Mutate.enumerate ~transients:8 ~seed:1 ~hang:false tr)

let test_mutants_simulate_once () =
  (* Every seed-1 toy3 campaign mutant, verified the way the campaign
     does it — including the ones whose run deadlocks or spins to the
     cycle bound. *)
  let tr, mutants = toy_mutants () in
  let compiled = Pipeline.Pipesem.compile tr in
  Alcotest.(check int) "33 mutants" 33 (List.length mutants);
  let outcomes =
    List.filter_map
      (fun (m : Fault.Mutate.mutant) ->
        let inject () =
          match Fault.Inject.injection_of_mutant m with
          | Some i -> i
          | None -> Pipeline.Pipesem.no_injection
        in
        let compiled =
          if m.Fault.Mutate.mut_tr == tr then compiled
          else Pipeline.Pipesem.compile m.Fault.Mutate.mut_tr
        in
        Option.map
          (fun v -> v.Core.liveness.Proof_engine.Liveness.outcome)
          (check_one_run ~max_instructions:6 ~inject ~compiled
             m.Fault.Mutate.mut_id m.Fault.Mutate.mut_tr))
      mutants
  in
  let count o = List.length (List.filter (( = ) o) outcomes) in
  Alcotest.(check int) "every mutant verified" 33 (List.length outcomes);
  Alcotest.(check int) "deadlocked mutants" 5
    (count Pipeline.Pipesem.Deadlocked);
  Alcotest.(check int) "mutants out of cycles" 6
    (count Pipeline.Pipesem.Out_of_cycles)

let status_of obs id =
  match List.find_opt (fun (o : O.obligation) -> o.O.ob_id = id) obs with
  | Some o -> o.O.ob_status
  | None -> Alcotest.failf "no obligation %s" id

let test_liveness_evidence () =
  (* A run that never completes names its outcome, the retirements seen
     and the cycles since the last one — not a "max gap 0". *)
  let tr, mutants = toy_mutants () in
  let compiled = Pipeline.Pipesem.compile tr in
  let verify id =
    let m =
      List.find (fun (m : Fault.Mutate.mutant) -> m.Fault.Mutate.mut_id = id)
        mutants
    in
    Core.verify ~max_instructions:6 ~compiled
      ?inject:(Fault.Inject.injection_of_mutant m)
      tr
  in
  List.iter
    (fun (id, lv) ->
      let v = verify id in
      Alcotest.(check bool) (id ^ " fails LV") true
        (status_of v.Core.obligations "LV" = O.Failed lv);
      Alcotest.(check string) (id ^ " report")
        (Printf.sprintf "liveness: %s: VIOLATED\n" lv)
        (Format.asprintf "%a" Proof_engine.Liveness.pp_report v.Core.liveness))
    [
      ( "stall@1=1",
        "run out of cycles after 0 retirements, none in the last 88 cycles" );
      ("stall@0=1", "run deadlocked after 0 retirements, none in the last 77 cycles");
    ];
  (* Completed runs keep their text. *)
  let v = Core.verify ~max_instructions:6 ~compiled tr in
  Alcotest.(check bool) "completed LV" true
    (status_of v.Core.obligations "LV"
    = O.Discharged "max inter-retirement gap 3 <= bound 88");
  Alcotest.(check string) "completed report"
    "liveness: 6 retirements, max inter-retirement gap 3 cycles (bound 88): \
     ok\n"
    (Format.asprintf "%a" Proof_engine.Liveness.pp_report v.Core.liveness)

let test_lv_iff_incomplete () =
  (* Every toy3 campaign mutant of seeds 0-15, verified the way the
     campaign does it: the drivers stop a run at its first gap over
     the bound, so LV fails exactly when the run did not complete, and
     a completed run is within the bound. *)
  let tr = toy_tr () in
  let compiled = Pipeline.Pipesem.compile tr in
  let verified = ref 0 and incomplete = ref 0 in
  for seed = 0 to 15 do
    List.iter
      (fun (m : Fault.Mutate.mutant) ->
        let id = Printf.sprintf "seed %d %s" seed m.Fault.Mutate.mut_id in
        let inject =
          match Fault.Inject.injection_of_mutant m with
          | Some i -> i
          | None -> Pipeline.Pipesem.no_injection
        in
        let compiled =
          if m.Fault.Mutate.mut_tr == tr then Some compiled else None
        in
        match
          Core.verify_result ?compiled ~max_instructions:6 ~inject
            m.Fault.Mutate.mut_tr
        with
        | Error e -> Alcotest.failf "%s: %s" id e.Core.message
        | Ok v ->
          incr verified;
          let live = v.Core.liveness in
          let completed =
            live.Proof_engine.Liveness.outcome = Pipeline.Pipesem.Completed
          in
          if not completed then incr incomplete;
          let lv_failed =
            match status_of v.Core.obligations "LV" with
            | O.Failed _ -> true
            | O.Discharged _ | O.Pending -> false
          in
          Alcotest.(check bool) (id ^ ": LV fails iff incomplete")
            (not completed) lv_failed;
          if completed then
            Alcotest.(check bool) (id ^ ": within the bound") true
              (live.Proof_engine.Liveness.max_gap
              <= live.Proof_engine.Liveness.bound))
      (Fault.Mutate.enumerate ~transients:8 ~seed ~hang:false tr)
  done;
  Alcotest.(check int) "33 x 16 verifications" 528 !verified;
  (* Per seed, five stuck wires deadlock and six livelock. *)
  Alcotest.(check int) "incomplete runs" 176 !incomplete

(* An injection whose edge hook raises in cycle 3 of every run. *)
let upset =
  {
    Pipeline.Pipesem.no_injection with
    Pipeline.Pipesem.inj_edge =
      (fun ~cycle _ -> if cycle = 3 then failwith "upset");
  }

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let test_verify_error_unchanged () =
  (* A run that raises surfaces from [verify_result] as its own
     exception, classified by [verify_result] itself — not as the
     obligation suite's rendering of it. *)
  match Core.verify_result ~inject:upset (toy_tr ()) with
  | Error { Core.phase; message } ->
    Alcotest.(check string) "phase" "verification" phase;
    Alcotest.(check string) "message"
      (Printexc.to_string (Failure "upset"))
      message
  | Ok _ -> Alcotest.fail "expected the raising run to abort verification"

let test_verify_keeps_backtrace () =
  (* The re-raised exception carries the backtrace of the run that
     raised it, not one that starts in [Core.verify]. *)
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  match Core.verify ~inject:upset (toy_tr ()) with
  | _ -> Alcotest.fail "expected the raising run to abort verification"
  | exception Failure _ ->
    let bt = Printexc.get_backtrace () in
    Alcotest.(check bool)
      ("raised inside the co-simulation:\n" ^ bt)
      true (contains bt "pipesem.ml")

let test_verify_skips_structural () =
  (* Serially, a verify whose co-simulation raised gives up before the
     per-rule structural (BDD) proofs.  The full suite still runs them
     on the same machine, and they stand on their own. *)
  let with_equiv_spans f =
    Obs.Span.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
    let r = f () in
    ( r,
      List.length
        (List.filter
           (fun (s : Obs.Span.record) -> s.Obs.Span.span_name = "verify.equiv")
           (Obs.Span.records ())) )
  in
  let tr = toy_tr () in
  let r, proofs = with_equiv_spans (fun () -> Core.verify_result ~inject:upset tr) in
  Alcotest.(check bool) "verify aborted" true (Result.is_error r);
  Alcotest.(check int) "no structural proof" 0 proofs;
  let obs, proofs = with_equiv_spans (fun () -> O.discharge_all ~inject:upset tr) in
  let tops =
    List.filter (fun (o : O.obligation) -> contains o.O.ob_id "TOP.") obs
  in
  Alcotest.(check bool) "the machine has forwarding rules" true (tops <> []);
  Alcotest.(check int) "one structural proof per rule" (List.length tops)
    proofs;
  List.iter
    (fun (o : O.obligation) ->
      match o.O.ob_status with
      | O.Discharged _ -> ()
      | O.Pending | O.Failed _ -> Alcotest.fail (o.O.ob_id ^ " not discharged"))
    tops

(* A symbolic counterexample is a failed verification, not a
   cancellation.  Verified without an injection (so the symbolic
   co-simulation runs), toy3 with a stuck hit comparator fails; on a
   program whose concrete run hides the fault, the failure is the
   symbolic counterexample on DC.REG. *)
let test_symbolic_counterexample () =
  let is_hit (m : Fault.Mutate.mutant) =
    String.starts_with ~prefix:"hit:" m.Fault.Mutate.mut_id
  in
  let _, mutants = toy_mutants () in
  let hits = List.filter is_hit mutants in
  Alcotest.(check (list string)) "the four stuck hits"
    [ "hit:$hit_1_srcA_2=0"; "hit:$hit_1_srcA_2=1"; "hit:$hit_1_srcB_2=0";
      "hit:$hit_1_srcB_2=1" ]
    (List.map (fun (m : Fault.Mutate.mutant) -> m.Fault.Mutate.mut_id) hits);
  List.iter
    (fun (m : Fault.Mutate.mutant) ->
      Alcotest.(check bool) (m.Fault.Mutate.mut_id ^ " fails") false
        (Core.verified (Core.verify ~max_instructions:6 m.Fault.Mutate.mut_tr)))
    hits;
  (* REG[1] := REG[1] + REG[0] leaves REG[1] unchanged for the concrete
     REG[0] = 0, so the consumer's stale read goes unnoticed by the
     run; for all data it does not. *)
  let program =
    Core.Toy.[ encode ~dst:1 ~src1:1 ~src2:0; encode ~dst:3 ~src1:1 ~src2:1 ]
  in
  let m =
    List.find
      (fun (m : Fault.Mutate.mutant) -> m.Fault.Mutate.mut_id = "hit:$hit_1_srcA_2=0")
      (Fault.Mutate.enumerate ~seed:1 (Core.Toy.transform ~program ()))
  in
  let v = Core.verify ~max_instructions:2 m.Fault.Mutate.mut_tr in
  Alcotest.(check bool) "the run is consistent" true (C.ok v.Core.consistency);
  Alcotest.(check bool) "not verified" false (Core.verified v);
  List.iter
    (fun (o : O.obligation) ->
      match (o.O.ob_id, o.O.ob_status) with
      | "DC.REG", O.Failed e ->
        Alcotest.(check string) "the counterexample"
          "symbolic co-simulation found a counterexample: MISMATCH at \
           instruction 1 register REG under {REG[0]=1}"
          e
      | "DC.REG", _ -> Alcotest.fail "DC.REG not failed"
      | id, O.Failed e -> Alcotest.failf "%s failed: %s" id e
      | _ -> ())
    v.Core.obligations

(* ---------------- fault injection ---------------- *)

(* Sabotage the forwarding: replace a g network by the plain register
   read (no bypass) while leaving the interlock alone.  Dependent
   instructions then read stale values — the checker must notice. *)
let sabotage_g (tr : T.t) g_name default =
  {
    tr with
    T.signals =
      List.map
        (fun (n, e) -> if String.equal n g_name then (n, default) else (n, e))
        tr.T.signals;
  }

let test_detects_broken_forwarding () =
  let p = Dlx.Progs.hazard_dependent_chain 10 in
  let tr = dlx_tr p in
  let rs1 = Hw.Expr.slice (Hw.Expr.input "IR.1" 32) ~hi:25 ~lo:21 in
  let stale =
    Hw.Expr.File_read { file = "GPR"; data_width = 32; addr = rs1 }
  in
  let bad = sabotage_g tr "$g_1_GPRa" stale in
  let reference =
    Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p) ~instructions:p.Dlx.Progs.dyn_instructions
  in
  let report =
    C.check ~max_instructions:p.Dlx.Progs.dyn_instructions ~reference bad
  in
  Alcotest.(check bool) "violations found" true
    (List.length report.C.violations > 0)

let test_detects_broken_interlock () =
  (* Disable the load-use hazard: the consumer reads a stale value. *)
  let p = Dlx.Progs.hazard_load_use 6 in
  let tr = dlx_tr p in
  let bad =
    {
      tr with
      T.signals =
        List.map
          (fun (n, e) ->
            if String.equal n "$dhaz_stage_1" then (n, Hw.Expr.fls) else (n, e))
          tr.T.signals;
    }
  in
  let reference =
    Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data Dlx.Seq_dlx.Base
      ~program:(Dlx.Progs.program p) ~instructions:p.Dlx.Progs.dyn_instructions
  in
  let report =
    C.check ~max_instructions:p.Dlx.Progs.dyn_instructions ~reference bad
  in
  Alcotest.(check bool) "violations found" true
    (List.length report.C.violations > 0)

(* Two programs that differ only in data memory: [alu] is ALU-only,
   and [store] replaces its one instruction without effect (a write to
   r0) by a store of a nonzero register.  GPR, PC and DPC agree at
   every step; MEM differs from the store on.  Checking [store]'s run
   against [alu]'s reference trace must report MEM: both start from
   the same shared zero image, so a checker that trusted a stale
   "still the image" claim after the store would miss it. *)
let alu_vs_store () =
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
  ( Dlx.Progs.make "alu" (body (Dlx.Isa.Add (0, 1, 2))),
    Dlx.Progs.make "store" (body (Dlx.Isa.Sw (0, 1, 16))) )

let registers (r : C.report) =
  List.sort_uniq String.compare
    (List.map (fun (v : C.violation) -> v.C.register) r.C.violations)

let test_detects_store_against_image () =
  let alu, store = alu_vs_store () in
  let n = alu.Dlx.Progs.dyn_instructions in
  Alcotest.(check int) "same length" n store.Dlx.Progs.dyn_instructions;
  let trace (p : Dlx.Progs.t) =
    Dlx.Seq_dlx.ref_trace Dlx.Seq_dlx.Base ~program:(Dlx.Progs.program p)
      ~instructions:n
  in
  let image (p : Dlx.Progs.t) =
    Dlx.Seq_dlx.image ~program:(Dlx.Progs.program p) ()
  in
  let shape = C.shape (dlx_tr alu) in
  let batched p ~reference =
    C.check_batched ~max_instructions:n ~reference ~init:(image p) shape
  in
  Alcotest.(check bool) "alu against its own trace" true
    (C.ok (batched alu ~reference:(trace alu)));
  Alcotest.(check bool) "store against its own trace" true
    (C.ok (batched store ~reference:(trace store)));
  let r = batched store ~reference:(trace alu) in
  Alcotest.(check (list string)) "batched: MEM diverges" [ "MEM" ]
    (registers r);
  (* the one-shot path, whose state starts from the spec's image *)
  let r = C.check ~max_instructions:n ~reference:(trace alu) (dlx_tr store) in
  Alcotest.(check (list string)) "one-shot: MEM diverges" [ "MEM" ]
    (registers r)

let test_liveness_negative () =
  let ext ~stage ~cycle:_ = stage = 2 in
  let live = Proof_engine.Liveness.check ~ext ~stop_after:6 (toy_tr ()) in
  Alcotest.(check bool) "not ok" false (Proof_engine.Liveness.ok live)

(* ---------------- exhaustive bounded checking ---------------- *)

let test_bmc_toy () =
  (* All programs of length 3 over a 2-register alphabet: every
     forwarding/hazard interleaving at that bound. *)
  let alphabet =
    [
      Core.Toy.encode ~dst:1 ~src1:1 ~src2:2;
      Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
      Core.Toy.encode ~dst:1 ~src1:2 ~src2:2;
      Core.Toy.encode ~dst:3 ~src1:1 ~src2:3;
    ]
  in
  let outcome =
    Proof_engine.Bmc.exhaustive
      ~build:(fun program -> Core.Toy.transform ~program ())
      ~alphabet ~length:3 ()
  in
  Alcotest.(check int) "64 programs" 64 outcome.Proof_engine.Bmc.programs;
  if not (Proof_engine.Bmc.ok outcome) then
    Alcotest.failf "%a" (fun ppf -> Proof_engine.Bmc.pp ppf) outcome

let test_bmc_catches_injected_bug () =
  let alphabet =
    [ Core.Toy.encode ~dst:1 ~src1:1 ~src2:2; Core.Toy.encode ~dst:2 ~src1:1 ~src2:1 ]
  in
  let build program =
    let tr = Core.Toy.transform ~program () in
    (* Break srcA forwarding. *)
    let rs1 = Hw.Expr.slice (Hw.Expr.input "IR.1" 16) ~hi:7 ~lo:4 in
    sabotage_g tr "$g_1_srcA"
      (Hw.Expr.File_read { file = "REG"; data_width = 16; addr = rs1 })
  in
  let outcome = Proof_engine.Bmc.exhaustive ~build ~alphabet ~length:3 () in
  Alcotest.(check bool) "bug found" false (Proof_engine.Bmc.ok outcome)

(* ---------------- trace invariants ---------------- *)

let test_trace_invariants_pass () =
  let records = ref [] in
  let callbacks =
    {
      Pipeline.Pipesem.no_callbacks with
      Pipeline.Pipesem.on_cycle = (fun r -> records := r :: !records);
    }
  in
  ignore (Pipeline.Pipesem.run ~callbacks ~stop_after:6 (toy_tr ()));
  match Proof_engine.Trace_invariants.check ~n_stages:3 (List.rev !records) with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s" (String.concat "; " e.Pipeline.Evidence.messages)

let test_trace_invariants_negative () =
  let records = ref [] in
  let callbacks =
    {
      Pipeline.Pipesem.no_callbacks with
      Pipeline.Pipesem.on_cycle = (fun r -> records := r :: !records);
    }
  in
  ignore (Pipeline.Pipesem.run ~callbacks ~stop_after:6 (toy_tr ()));
  let damaged =
    List.mapi
      (fun i (r : Pipeline.Pipesem.cycle_record) ->
        if i = 2 then begin
          let stall = Array.copy r.Pipeline.Pipesem.stall in
          stall.(1) <- true;
          { r with Pipeline.Pipesem.stall }
        end
        else r)
      (List.rev !records)
  in
  match Proof_engine.Trace_invariants.check ~n_stages:3 damaged with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corruption not detected"

(* A toy run whose fetch stage is held by an external stall for most of
   its cycles.  Lowering full_0 in a cycle where stage 0 neither
   updates nor rolls back breaks exactly one invariant ("full_0 is
   low"): no other check reads full_0 there. *)
let stalled_toy_trace () =
  let ext ~stage ~cycle = stage = 0 && cycle >= 2 && cycle < 60 in
  let records = ref [] in
  let callbacks =
    {
      Pipeline.Pipesem.no_callbacks with
      Pipeline.Pipesem.on_cycle = (fun r -> records := r :: !records);
    }
  in
  ignore (Pipeline.Pipesem.run ~ext ~callbacks ~stop_after:6 (toy_tr ()));
  List.rev !records

let test_trace_invariants_cap () =
  let trace = stalled_toy_trace () in
  let check records =
    Proof_engine.Trace_invariants.check ~n_stages:3 records
  in
  (match check trace with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "undamaged trace: %s"
      (String.concat "; " e.Pipeline.Evidence.messages));
  let idle =
    List.filter_map
      (fun (r : Pipeline.Pipesem.cycle_record) ->
        if r.Pipeline.Pipesem.ue.(0) || r.Pipeline.Pipesem.rollback.(0) then None
        else Some r.Pipeline.Pipesem.cycle)
      trace
  in
  Alcotest.(check bool) "40 idle fetch cycles" true (List.length idle >= 40);
  let damage cycles =
    List.mapi
      (fun t (r : Pipeline.Pipesem.cycle_record) ->
        if List.mem t cycles then begin
          let full = Array.copy r.Pipeline.Pipesem.full in
          full.(0) <- false;
          { r with Pipeline.Pipesem.full }
        end
        else r)
      trace
  in
  let message t = Printf.sprintf "cycle %d: full_0 is low" t in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let few = [ List.nth idle 0; List.nth idle 7; List.nth idle 30 ] in
  (match check (damage few) with
  | Error { Pipeline.Evidence.total; messages } ->
    Alcotest.(check int) "3 counted" 3 total;
    Alcotest.(check (list string)) "3 messages" (List.map message few) messages
  | Ok () -> Alcotest.fail "3 damaged cycles not detected");
  let many = take 40 idle in
  match check (damage many) with
  | Error { Pipeline.Evidence.total; messages } ->
    Alcotest.(check int) "40 counted" 40 total;
    Alcotest.(check (list string))
      "first 16, then the rest counted"
      (List.map message (take 16 many) @ [ "… and 24 more" ])
      messages
  | Ok () -> Alcotest.fail "40 damaged cycles not detected"

let test_lemma1_total_reported () =
  (* The report prints every lemma-1 violation counted, not the number
     of messages kept. *)
  let trace = stalled_toy_trace () in
  let damaged =
    List.mapi
      (fun t (r : Pipeline.Pipesem.cycle_record) ->
        if t >= 1 && t <= 40 then begin
          let tags = Array.copy r.Pipeline.Pipesem.tags in
          tags.(0) <- Some (1000 + t);
          { r with Pipeline.Pipesem.tags }
        end
        else r)
      trace
  in
  let e =
    match Pipeline.Schedule.check_lemma1 ~n_stages:3 damaged with
    | Error e -> e
    | Ok () -> Alcotest.fail "40 damaged cycles not detected"
  in
  Alcotest.(check int) "17 entries" 17
    (List.length e.Pipeline.Evidence.messages);
  let report = C.check ~max_instructions:6 (toy_tr ()) in
  let text r = Format.asprintf "%a" C.pp_report r in
  Alcotest.(check bool) "the run itself passes" true
    (contains (text report) "lemma 1: ok;");
  Alcotest.(check bool) "40 violations reported" true
    (contains (text { report with C.lemma1 = C.Lemma_failed e })
       "lemma 1: 40 violations;");
  (* A stuck stall wire fails lemma 1 twice in each of cycles 2..87 of
     its run, which stops at the liveness bound after 88 cycles. *)
  let tr, mutants = toy_mutants () in
  let m =
    List.find
      (fun (m : Fault.Mutate.mutant) -> m.Fault.Mutate.mut_id = "stall@1=1")
      mutants
  in
  let report =
    C.check ~max_instructions:6 ?inject:(Fault.Inject.injection_of_mutant m) tr
  in
  match report.C.lemma1 with
  | C.Lemma_failed e ->
    Alcotest.(check int) "every violation counted" 172
      e.Pipeline.Evidence.total;
    Alcotest.(check int) "17 entries" 17 (List.length e.Pipeline.Evidence.messages);
    Alcotest.(check string) "the tail counts the rest"
      (Printf.sprintf "… and %d more" (e.Pipeline.Evidence.total - 16))
      (List.nth e.Pipeline.Evidence.messages 16);
    Alcotest.(check bool) "true total reported" true
      (contains (text report)
         (Printf.sprintf "lemma 1: %d violations;" e.Pipeline.Evidence.total))
  | C.Lemma_ok | C.Lemma_skipped_rollback -> Alcotest.fail "lemma 1 held"

(* ---------------- PVS emission ---------------- *)

let test_pvs_theory () =
  let tr = toy_tr () in
  let obs = O.discharge_all tr in
  let s = Proof_engine.Pvs_gen.theory tr obs in
  let has sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "theory header" true (has "toy3_pipeline: THEORY");
  Alcotest.(check bool) "scheduling function" true (has "RECURSIVE nat");
  Alcotest.(check bool) "lemma 1" true (has "[L1.1]");
  Alcotest.(check bool) "per-operand lemma" true (has "[L3.1_srcA]");
  Alcotest.(check bool) "discharge note" true (has "discharged:");
  Alcotest.(check bool) "closes" true (has "END toy3_pipeline")

let () =
  Alcotest.run "proof"
    [
      ( "obligations",
        [
          Alcotest.test_case "generation" `Quick test_generate_counts;
          Alcotest.test_case "discharge toy" `Quick test_discharge_toy;
          Alcotest.test_case "discharge dlx" `Quick test_discharge_dlx;
        ] );
      ( "verify",
        [
          Alcotest.test_case "one co-simulation per verify" `Quick
            test_verify_simulates_once;
          Alcotest.test_case "one co-simulation per mutant verify" `Quick
            test_mutants_simulate_once;
          Alcotest.test_case "liveness evidence of incomplete runs" `Quick
            test_liveness_evidence;
          Alcotest.test_case "LV fails iff the run did not complete" `Quick
            test_lv_iff_incomplete;
          Alcotest.test_case "raising run keeps its error" `Quick
            test_verify_error_unchanged;
          Alcotest.test_case "raising run keeps its backtrace" `Quick
            test_verify_keeps_backtrace;
          Alcotest.test_case "raising run skips structural proofs" `Quick
            test_verify_skips_structural;
          Alcotest.test_case "a symbolic counterexample fails verification"
            `Quick test_symbolic_counterexample;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "broken forwarding caught" `Quick
            test_detects_broken_forwarding;
          Alcotest.test_case "store against an untouched image" `Quick
            test_detects_store_against_image;
          Alcotest.test_case "broken interlock caught" `Quick
            test_detects_broken_interlock;
          Alcotest.test_case "liveness violation caught" `Quick
            test_liveness_negative;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "toy BMC" `Slow test_bmc_toy;
          Alcotest.test_case "BMC catches bugs" `Slow
            test_bmc_catches_injected_bug;
        ] );
      ( "trace invariants",
        [
          Alcotest.test_case "pass" `Quick test_trace_invariants_pass;
          Alcotest.test_case "negative" `Quick test_trace_invariants_negative;
          Alcotest.test_case "capped messages, every violation counted"
            `Quick test_trace_invariants_cap;
          Alcotest.test_case "lemma 1 total reported" `Quick
            test_lemma1_total_reported;
        ] );
      ("pvs", [ Alcotest.test_case "theory" `Quick test_pvs_theory ]);
    ]
