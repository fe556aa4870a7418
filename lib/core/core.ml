let pipeline_of_sequential ?options ?hints ?speculations m =
  Pipeline.Transform.run ?options ?hints ?speculations m

type verification = {
  consistency : Proof_engine.Consistency.report;
  liveness : Proof_engine.Liveness.report;
  obligations : Proof_engine.Obligation.obligation list;
}

let verify ?ext ?max_instructions ?reference ?compiled ?pool ?inject ?cancel
    ?disasm tr =
  (* One evaluation plan serves every co-simulation of the suite: the
     compiled plan is immutable after [compile], so sharing it across
     pool domains is safe (each run builds its own state and plan
     instance — see {!Pipeline.Pipesem}). *)
  let compiled =
    match compiled with Some c -> c | None -> Pipeline.Pipesem.compile tr
  in
  (* The obligation suite runs the data-consistency co-simulation once,
     and reads the liveness report off the same run; its reports are the
     verdict's.  A run that raised re-raises its own exception with its
     own backtrace, so [verify_result] classifies it exactly as if it had
     been run here. *)
  let d =
    Proof_engine.Obligation.discharge ?ext ?max_instructions ?reference
      ~compiled ?pool ?inject ?cancel ?disasm tr
  in
  match d.Proof_engine.Obligation.runs with
  | Ok consistency ->
    {
      consistency;
      liveness = consistency.Proof_engine.Consistency.liveness;
      obligations = Lazy.force d.Proof_engine.Obligation.obligations;
    }
  | Error (e, backtrace) -> Printexc.raise_with_backtrace e backtrace

type verify_error = { phase : string; message : string }

let verify_result ?ext ?max_instructions ?reference ?compiled ?pool ?inject
    ?cancel ?disasm tr =
  match
    verify ?ext ?max_instructions ?reference ?compiled ?pool ?inject ?cancel
      ?disasm tr
  with
  | v -> Ok v
  | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
  | exception e ->
    (* A mutant that breaks plan evaluation surfaces here as the
       exception its co-simulation raised. *)
    let phase, message =
      match e with
      | Hw.Plan.Compile_error m -> ("plan compilation", m)
      | Hw.Plan.Run_error m -> ("plan evaluation", m)
      | Hw.Eval.Eval_error m -> ("expression evaluation", m)
      | Hw.Expr.Ill_typed m -> ("expression typing", m)
      | Invalid_argument m -> ("state access", m)
      | e -> ("verification", Printexc.to_string e)
    in
    Error { phase; message }

let verified v =
  Proof_engine.Consistency.ok v.consistency
  && Proof_engine.Liveness.ok v.liveness
  && Proof_engine.Obligation.all_discharged v.obligations

let report tr = Format.asprintf "%a" Pipeline.Report.pp_inventory tr
let verilog tr = Hw.Verilog.to_string (Pipeline.Report.verilog tr)
let proof_script tr v = Proof_engine.Pvs_gen.theory tr v.obligations

module Toy = Toy
module Elastic = Elastic
