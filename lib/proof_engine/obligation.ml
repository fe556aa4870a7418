module Spec = Machine.Spec
module Transform = Pipeline.Transform

type method_ =
  | Trace_invariant
  | Cosimulation
  | By_construction

type status =
  | Pending
  | Discharged of string
  | Failed of string

type obligation = {
  ob_id : string;
  ob_title : string;
  ob_statement : string;
  ob_method : method_;
  mutable ob_status : status;
}

let ob id title statement method_ =
  {
    ob_id = id;
    ob_title = title;
    ob_statement = statement;
    ob_method = method_;
    ob_status = Pending;
  }

let generate (t : Transform.t) =
  let m = t.Transform.base in
  let name = m.Spec.machine_name in
  let lemma1 =
    [
      ob "L1.1" "Scheduling function monotonicity"
        (Printf.sprintf
           "For %s: I(k,T) = I(k,T-1) + 1 if ue_k^(T-1), else I(k,T-1)." name)
        Trace_invariant;
      ob "L1.2" "Adjoining stages"
        "I(k-1,T) - I(k,T) is 0 or 1 for every stage k >= 1 and cycle T."
        Trace_invariant;
      ob "L1.3" "Full bits track the scheduling function"
        "full_k^T = 0 iff I(k-1,T) = I(k,T)." Trace_invariant;
    ]
  in
  let engine =
    [
      ob "SE.1" "Update enables"
        "ue_k = full_k AND NOT stall_k AND NOT rollback'_k." Trace_invariant;
      ob "SE.2" "Stall propagation"
        "stall_k = (dhaz_k OR ext_k OR stall_(k+1)) AND full_k; a full stage \
         below a stalled one stalls."
        Trace_invariant;
      ob "SE.3" "Full-bit update"
        "fullb.s := (ue_(s-1) OR stall_s) AND NOT rollback'_s; bubbles are \
         removed when possible."
        Trace_invariant;
    ]
  in
  let per_rule =
    List.concat_map
      (fun (r : Transform.rule) ->
        let who =
          Printf.sprintf "operand %s of stage %d (written by stage %d)"
            r.Transform.rule_label r.Transform.consumer_stage
            r.Transform.writer_stage
        in
        [
          ob
            (Printf.sprintf "L2.%s" r.Transform.rule_label)
            "No intervening writer (Lemma 2)"
            (Printf.sprintf
               "For %s: if hit signal R_hit[top] is active in cycle T, the \
                register entry is not modified between instruction \
                I(top,T)+1 and the consuming instruction."
               who)
            Cosimulation;
          ob
            (Printf.sprintf "L3.%s" r.Transform.rule_label)
            "Forwarded inputs are correct (Lemma 3)"
            (Printf.sprintf
               "For %s: with an active hit and no data hazard, the generated \
                input g equals the specification operand value R_S^i[x]."
               who)
            Cosimulation;
          ob
            (Printf.sprintf "TOP.%s" r.Transform.rule_label)
            "Top selection is a priority choice"
            (Printf.sprintf
               "For %s: the g network selects the source of the smallest \
                stage index with an active hit, and the register value when \
                no hit is active."
               who)
            By_construction;
        ])
      t.Transform.rules
  in
  let spec_obs =
    List.map
      (fun (sp : Pipeline.Fwd_spec.speculation) ->
        ob
          (Printf.sprintf "SP.%s" sp.Pipeline.Fwd_spec.spec_label)
          "Speculation affects performance only"
          (Printf.sprintf
             "Speculation %s (resolved in stage %d): a misprediction squashes \
              stages 0..%d and the machine still satisfies data consistency; \
              the guessed value has no influence on correctness."
             sp.Pipeline.Fwd_spec.spec_label sp.Pipeline.Fwd_spec.resolve_stage
             sp.Pipeline.Fwd_spec.resolve_stage)
          Cosimulation)
      t.Transform.speculations
  in
  let consistency =
    List.map
      (fun (r : Spec.register) ->
        ob
          (Printf.sprintf "DC.%s" r.Spec.reg_name)
          "Data consistency (paper 6.2)"
          (Printf.sprintf
             "For visible register %s in out(%d): when instruction i occupies \
              stage %d, the implementation value equals R_S^i."
             r.Spec.reg_name r.Spec.stage r.Spec.stage)
          Cosimulation)
      (Spec.visible_registers m)
  in
  let liveness =
    [
      ob "LV" "Liveness (paper 6.3)"
        "A finite upper bound exists such that any given instruction \
         terminates."
        Cosimulation;
    ]
  in
  lemma1 @ engine @ per_rule @ spec_obs @ consistency @ liveness

(* The TOP obligation is discharged symbolically: the generated
   network (whatever its implementation: chain, tree or bus) must be
   equivalent, for every valuation of the hit, candidate and register
   inputs, to the specification form — the canonical priority chain
   over the same hits and candidates with the architectural read as the
   default.  For the chain implementation this is near-syntactic; for
   the others it is a real theorem, proved by the BDD checker. *)
let check_top_structural (t : Transform.t) (r : Transform.rule) =
  match r.Transform.g_signal with
  | None -> Ok "interlock-only: no g network (trivially satisfied)"
  | Some g_name ->
    let g = List.assoc g_name t.Transform.signals in
    let cases =
      List.map
        (fun (s : Transform.source) ->
          let hit = Hw.Expr.input s.Transform.hit_signal 1 in
          let cand =
            match s.Transform.cand_signal with
            | Some c -> Hw.Expr.input c (Hw.Expr.width g)
            | None -> Hw.Expr.const_int ~width:(Hw.Expr.width g) 0
          in
          (hit, cand))
        r.Transform.sources
    in
    let spec = Hw.Expr.mux_cases ~default:r.Transform.g_default cases in
    (match Equiv.check g spec with
    | Equiv.Equivalent { variables; bdd_nodes } ->
      Ok
        (Printf.sprintf
           "proved equivalent to the priority specification (%d variables, \
            %d BDD nodes)"
           variables bdd_nodes)
    | Equiv.Different c ->
      Error
        (Format.asprintf "differs from the priority specification: %a"
           Equiv.pp_result (Equiv.Different c))
    | Equiv.Width_mismatch (a, b) ->
      Error (Printf.sprintf "width mismatch %d vs %d" a b))

type discharge = {
  obligations : obligation list Lazy.t;
  runs : (Consistency.report, exn * Printexc.raw_backtrace) result;
}

(* A checker run that raised keeps its exception and where it was
   raised: the statuses render it, and [discharge] hands both back. *)
let catching f =
  match f () with
  | r -> Ok r
  | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let suite ?ext ?max_instructions ?reference ?compiled ?pool ?inject ?cancel
    ?disasm (t : Transform.t) =
  let obs = generate t in
  Obs.Counters.add Obs.Counters.Obligations (List.length obs);
  let disassemble tag =
    match disasm with
    | None -> ""
    | Some f -> (
      match f tag with None -> "" | Some text -> Printf.sprintf " (%s)" text)
  in
  (* The co-simulation run and the per-rule structural proofs are
     mutually independent (the BDD checker builds a private manager
     per rule; the co-simulation instantiates the shared immutable plan
     privately), so with a pool they run in parallel.  The run itself
     checks Lemma 1, the stall-engine invariants and liveness; only
     the symbolic strengthening consumes its report afterwards.
     Results are assembled in the fixed obligation order, so the
     statuses are bit-identical to the serial discharge.

     Every task is hardened: a diverging or structurally broken
     machine (a campaign mutant) yields a [Failed] status on the
     obligations it was meant to discharge, never an exception that
     would mask the remaining obligations.  Only cancellation
     propagates. *)
  let top_structural r =
    match check_top_structural t r with
    | res -> res
    | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
    | exception e ->
      Error
        (Printf.sprintf "structural check aborted: %s" (Printexc.to_string e))
  in
  let tops =
    List.map
      (fun (r : Transform.rule) ->
        (r.Transform.rule_label, lazy (top_structural r)))
      t.Transform.rules
  in
  let cosim () =
    catching (fun () ->
        Consistency.check ?ext ?max_instructions ?reference ?compiled ?inject
          ?cancel t)
  in
  (* Serially the co-simulation runs first, and when it raised the
     structural proofs wait until the obligations are read: a verify
     that re-raises the co-simulation's exception never runs them. *)
  let report =
    match pool with
    | None ->
      let report = cosim () in
      if Result.is_ok report then
        List.iter (fun (_, proof) -> ignore (Lazy.force proof)) tops;
      report
    | Some pool -> (
      match
        Exec.Pool.map pool
          (fun task -> task ())
          ((fun () -> Some (cosim ()))
          :: List.map
               (fun (_, proof) () ->
                 ignore (Lazy.force proof);
                 None)
               tops)
      with
      | Some report :: _ -> report
      | _ -> assert false)
  in
  (* A short symbolic co-simulation strengthens the data-consistency
     evidence from "on this run" to "for all initial data" when the
     machine's symbolic state is small enough, or finds a counterexample
     the run missed.  Only attempted without an external reference (the
     symbolic checker uses the machine's own sequential semantics),
     without ext stalls, and without fault injection (the symbolic
     checker replays the unfaulted semantics, so its verdict would not
     be about the machine under test). *)
  let symbolic_task (report : Consistency.report) =
    match (reference, ext, inject) with
    | None, None, None -> (
      let small =
        List.for_all
          (fun (r : Spec.register) ->
            match r.Spec.kind with
            | Spec.File { addr_bits } when r.Spec.visible ->
              (1 lsl addr_bits) * r.Spec.width <= 512
            | Spec.File _ | Spec.Simple -> true)
          t.Transform.base.Spec.registers
      in
      if not small then `Nothing
      else
        match
          Symsim.check ~max_paths:8
            ~instructions:(min 8 report.Consistency.instructions)
            t
        with
        | Symsim.Proved { instructions; variables; _ } ->
          `Proved
            (Printf.sprintf
               "; additionally proved for ALL initial data over %d                 instructions (%d symbolic variables)"
               instructions variables)
        | Symsim.Mismatch { register; _ } as o ->
          `Mismatch
            ( register,
              Format.asprintf "symbolic co-simulation found a counterexample: %a"
                Symsim.pp_outcome o )
        | Symsim.Control_depends_on_data _ | Symsim.Stopped _ -> `Nothing
        | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
        | exception _ -> `Nothing)
    | _ -> `Nothing
  in
  let statuses =
    match report with
    | Error ((e, _) as raised) ->
      (* The co-simulation itself died: every obligation that depends
         on its trace fails with the same typed evidence, and the
         structural TOP proofs still stand on their own. *)
      let f = Consistency.failure_of_exn e in
      let failed =
        Failed
          (Printf.sprintf "co-simulation aborted during %s: %s"
             f.Consistency.failing_phase f.Consistency.message)
      in
      `All_cosim_failed (failed, raised)
    | Ok report -> `Statuses (report, symbolic_task report)
  in
  let lemma1_status, engine_status, consistency_status, cosim_global_status,
      lv_status, runs =
    match statuses with
    | `All_cosim_failed (failed, raised) ->
      (failed, failed, (fun _ -> failed), failed, failed, Error raised)
    | `Statuses (report, symbolic) ->
      let cycles = report.Consistency.stats.Pipeline.Pipesem.cycles in
      let lemma1_status =
        match report.Consistency.lemma1 with
        | Consistency.Lemma_ok ->
          Discharged (Printf.sprintf "checked on a %d-cycle trace" cycles)
        | Consistency.Lemma_skipped_rollback ->
          Discharged "not applicable: the trace contains rollbacks (paper 6.1)"
        | Consistency.Lemma_failed e ->
          Failed (String.concat "; " e.Pipeline.Evidence.messages)
      in
      let engine_status =
        match report.Consistency.invariants with
        | Ok () -> Discharged (Printf.sprintf "re-derived on a %d-cycle trace" cycles)
        | Error e -> Failed (String.concat "; " e.Pipeline.Evidence.messages)
      in
      let consistency_status register =
        let mine =
          List.filter
            (fun (v : Consistency.violation) ->
              String.equal v.Consistency.register register)
            report.Consistency.violations
        in
        match (mine, symbolic) with
        | [], `Mismatch (r, counterexample) when String.equal r register ->
          Failed counterexample
        | [], _ ->
          if report.Consistency.outcome = Pipeline.Pipesem.Completed then
            Discharged
              (Printf.sprintf "co-simulated %d instructions, %d comparisons%s"
                 report.Consistency.instructions report.Consistency.edge_checks
                 (match symbolic with `Proved suffix -> suffix | _ -> ""))
          else Failed "run did not complete"
        | v :: _, _ ->
          Failed
            (Printf.sprintf
               "cycle %d stage %d instr %d%s: register %s diverged, expected \
                %s, got %s"
               v.Consistency.at_cycle v.Consistency.at_stage v.Consistency.tag
               (disassemble v.Consistency.tag)
               v.Consistency.register v.Consistency.expected v.Consistency.got)
      in
      let cosim_global_status =
        if Consistency.ok report then
          Discharged
            (Printf.sprintf "co-simulated %d instructions with no violations"
               report.Consistency.instructions)
        else
          match report.Consistency.violations with
          | v :: _ ->
            Failed
              (Printf.sprintf
                 "data-consistency violation at cycle %d instr %d%s on \
                  register %s"
                 v.Consistency.at_cycle v.Consistency.tag
                 (disassemble v.Consistency.tag) v.Consistency.register)
          | [] -> Failed "data-consistency violations on the co-simulation"
      in
      let lv_status =
        let live = report.Consistency.liveness in
        if Liveness.ok live then Discharged (Liveness.evidence live)
        else Failed (Liveness.evidence live)
      in
      (lemma1_status, engine_status, consistency_status, cosim_global_status,
       lv_status, Ok report)
  in
  let assign () =
    List.iter
      (fun o ->
        let id = o.ob_id in
        let starts p =
          String.length id >= String.length p && String.sub id 0 (String.length p) = p
        in
        o.ob_status <-
          (if starts "L1." then lemma1_status
           else if starts "SE." then engine_status
           else if starts "DC." then
             consistency_status (String.sub id 3 (String.length id - 3))
           else if starts "TOP." then begin
             let label = String.sub id 4 (String.length id - 4) in
             match List.assoc_opt label tops with
             | None -> Failed "rule not found"
             | Some proof -> (
               match Lazy.force proof with
               | Ok msg -> Discharged msg
               | Error msg -> Failed msg)
           end
           else if starts "L2." || starts "L3." || starts "SP." then
             cosim_global_status
           else if String.equal id "LV" then lv_status
           else Pending))
      obs;
    obs
  in
  { obligations = lazy (assign ()); runs }

let discharge ?ext ?max_instructions ?reference ?compiled ?pool ?inject ?cancel
    ?disasm t =
  Obs.Span.with_span "verify.obligations" @@ fun () ->
  suite ?ext ?max_instructions ?reference ?compiled ?pool ?inject ?cancel
    ?disasm t

let discharge_all ?ext ?max_instructions ?reference ?compiled ?pool ?inject
    ?cancel ?disasm t =
  Obs.Span.with_span "verify.obligations" @@ fun () ->
  Lazy.force
    (suite ?ext ?max_instructions ?reference ?compiled ?pool ?inject ?cancel
       ?disasm t)
      .obligations

let all_discharged obs =
  List.for_all
    (fun o -> match o.ob_status with Discharged _ -> true | Pending | Failed _ -> false)
    obs

let pp ppf obs =
  List.iter
    (fun o ->
      let status, detail =
        match o.ob_status with
        | Pending -> ("PENDING", "")
        | Discharged d -> ("ok", d)
        | Failed f -> ("FAILED", f)
      in
      Format.fprintf ppf "  [%s] %-14s %s%s@." status o.ob_id o.ob_title
        (if detail = "" then "" else " -- " ^ detail))
    obs
