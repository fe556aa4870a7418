module Transform = Pipeline.Transform
module Pipesem = Pipeline.Pipesem
module Json = Obs.Json

type classification = Detected | Masked | Missed | Timed_out | Aborted

type outcome = {
  out_id : string;
  out_fault : string;
  out_class : classification;
  out_evidence : string;
}

type summary = {
  mutants : int;
  detected : int;
  masked : int;
  missed : int;
  timed_out : int;
  aborted : int;
}

let ok s = s.missed = 0 && s.aborted = 0

type target = {
  tgt_tr : Transform.t;
  tgt_compiled : Pipesem.compiled;
      (* compiled once per campaign; serves the golden run and every
         behavioural mutant (their [mut_tr] is physically the target's
         transform — only structural mutants carry a rewritten netlist
         and recompile) *)
  tgt_reference : Machine.Seqsem.trace option;
  tgt_instructions : int;
  tgt_disasm : (int -> string option) option;
  tgt_bmc : ((int list -> Transform.t) * int list * int) option;
  tgt_bmc_load : (int list -> (string * Machine.Value.t) list) option;
}

let make_target ?reference ?(instructions = 200) ?disasm ?bmc ?bmc_load tr =
  {
    tgt_tr = tr;
    tgt_compiled = Pipesem.compile tr;
    tgt_reference = reference;
    tgt_instructions = instructions;
    tgt_disasm = disasm;
    tgt_bmc = bmc;
    tgt_bmc_load = bmc_load;
  }

let class_label = function
  | Detected -> "detected"
  | Masked -> "masked"
  | Missed -> "MISSED"
  | Timed_out -> "timed_out"
  | Aborted -> "aborted"

let class_of_label = function
  | "detected" -> Some Detected
  | "masked" -> Some Masked
  | "MISSED" -> Some Missed
  | "timed_out" -> Some Timed_out
  | "aborted" -> Some Aborted
  | _ -> None

(* The first piece of failure evidence in a verification: a failed
   obligation or a consistency violation.  (A run that fails liveness
   did not complete, so its co-simulation is not consistent.) *)
let failure_evidence (v : Core.verification) =
  match
    List.find_opt
      (fun (o : Proof_engine.Obligation.obligation) ->
        match o.Proof_engine.Obligation.ob_status with
        | Proof_engine.Obligation.Failed _ -> true
        | _ -> false)
      v.Core.obligations
  with
  | Some o ->
    let detail =
      match o.Proof_engine.Obligation.ob_status with
      | Proof_engine.Obligation.Failed e -> e
      | _ -> assert false
    in
    Printf.sprintf "obligation %s: %s" o.Proof_engine.Obligation.ob_id detail
  | None ->
    if not (Proof_engine.Consistency.ok v.Core.consistency) then
      "data-consistency violations on the co-simulation"
    else "verification failed"

(* Classify one mutant: verification stack first; if everything is
   green, compare the faulted run's architecturally visible state
   against the golden (unfaulted) run to separate masked faults from
   proof-engine false negatives. *)
let classify ~cancel (t : target) ~golden (m : Mutate.mutant) =
  (* Structural mutants carry their fault in the rewritten netlist and
     need no hooks, but the machine under test is still faulted: pass
     the identity injection so the checkers treat it as such (no
     symbolic strengthening, relaxed control asserts). *)
  let inject =
    match Inject.injection_of_mutant ~cancel m with
    | Some i -> Some i
    | None -> Some Pipesem.no_injection
  in
  let finish out_class out_evidence =
    (* Some checkers accumulate per-cycle evidence; the campaign keeps
       the head (deterministic, checkpoint-friendly). *)
    let cap = 200 in
    let out_evidence =
      if String.length out_evidence <= cap then out_evidence
      else String.sub out_evidence 0 cap ^ " ...[truncated]"
    in
    {
      out_id = m.Mutate.mut_id;
      out_fault = Format.asprintf "%a" Mutate.pp_fault m.Mutate.mut_fault;
      out_class;
      out_evidence;
    }
  in
  (* A behavioural mutant's transform is physically the target's
     (only the injection hooks differ), so the target's precompiled
     plan serves it; a structural mutant's rewritten netlist must be
     recompiled. *)
  let compiled =
    if m.Mutate.mut_tr == t.tgt_tr then Some t.tgt_compiled else None
  in
  match
    Core.verify_result ?reference:t.tgt_reference ?compiled
      ~max_instructions:t.tgt_instructions ?inject ~cancel
      ?disasm:t.tgt_disasm m.Mutate.mut_tr
  with
  | Error (e : Core.verify_error) ->
    finish Detected
      (Printf.sprintf "verification aborted during %s: %s" e.Core.phase
         e.Core.message)
  | Ok v when not (Core.verified v) -> finish Detected (failure_evidence v)
  | Ok _ -> (
    let bmc_verdict =
      match t.tgt_bmc with
      | None -> None
      | Some (build, alphabet, length) ->
        let build program = Mutate.rewrite m.Mutate.mut_fault (build program) in
        (* With a load function the sweep is batched: [build] (and the
           fault rewrite) runs once per mutant instead of once per
           program — see {!Proof_engine.Bmc.exhaustive}. *)
        let o =
          Proof_engine.Bmc.exhaustive ~max_failures:1 ?inject ~cancel
            ?load:t.tgt_bmc_load ~build ~alphabet ~length ()
        in
        if Proof_engine.Bmc.ok o then None
        else
          Some
            (match o.Proof_engine.Bmc.failures with
            | (program, reason) :: _ ->
              Printf.sprintf "bmc: program [%s]: %s"
                (String.concat "; " (List.map string_of_int program))
                reason
            | [] -> "bmc: failure")
    in
    match bmc_verdict with
    | Some evidence -> finish Detected evidence
    | None -> (
      match
        match compiled with
        | Some c ->
          (* Session path: the faulted run reuses this domain's cached
             instance of the target's plan (reset on entry). *)
          Pipesem.run_session ?inject ~cancel
            ~stop_after:t.tgt_instructions (Pipesem.local_session c)
        | None ->
          Pipesem.run ?inject ~cancel ~stop_after:t.tgt_instructions
            m.Mutate.mut_tr
      with
      | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
      | exception e ->
        finish Missed
          ("verification green but the faulted run aborted: "
          ^ Printexc.to_string e)
      | faulted ->
        let spec = m.Mutate.mut_tr.Transform.machine in
        let visible st = Machine.State.snapshot_visible spec st in
        let mine = visible faulted.Pipesem.state in
        if Machine.State.equal_on golden mine then
          finish Masked "visible state identical to the golden run"
        else
          finish Missed
            (Printf.sprintf
               "verification green but visible state diverges from the \
                golden run on: %s"
               (String.concat ", " (Machine.State.diff golden mine)))))

(* Checkpoint file (schema "fault-campaign/1"). *)

let to_json outcomes =
  Json.Obj
    [
      ("schema", Json.String "fault-campaign/1");
      ( "results",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("id", Json.String o.out_id);
                   ("fault", Json.String o.out_fault);
                   ("class", Json.String (class_label o.out_class));
                   ("evidence", Json.String o.out_evidence);
                 ])
             outcomes) );
    ]

let of_json j =
  match Json.member "schema" j with
  | Some (Json.String "fault-campaign/1") -> (
    match Option.bind (Json.member "results" j) Json.to_list_opt with
    | None -> Error "fault-campaign: missing results"
    | Some rs ->
      let parse r =
        let str k = Option.bind (Json.member k r) Json.to_string_opt in
        match (str "id", str "fault", str "class", str "evidence") with
        | Some id, Some fault, Some cls, Some evidence -> (
          match class_of_label cls with
          | Some c ->
            Ok
              {
                out_id = id;
                out_fault = fault;
                out_class = c;
                out_evidence = evidence;
              }
          | None -> Error ("fault-campaign: unknown class " ^ cls))
        | _ -> Error "fault-campaign: malformed result"
      in
      List.fold_right
        (fun r acc ->
          match (parse r, acc) with
          | Ok o, Ok os -> Ok (o :: os)
          | (Error _ as e), _ -> e
          | _, (Error _ as e) -> e)
        rs (Ok []))
  | _ -> Error "fault-campaign: unknown schema"

let summarize outcomes =
  List.fold_left
    (fun s o ->
      let s = { s with mutants = s.mutants + 1 } in
      match o.out_class with
      | Detected -> { s with detected = s.detected + 1 }
      | Masked -> { s with masked = s.masked + 1 }
      | Missed -> { s with missed = s.missed + 1 }
      | Timed_out -> { s with timed_out = s.timed_out + 1 }
      | Aborted -> { s with aborted = s.aborted + 1 })
    { mutants = 0; detected = 0; masked = 0; missed = 0; timed_out = 0;
      aborted = 0 }
    outcomes

let breakdown s =
  [
    ("mutants", float_of_int s.mutants);
    ("detected", float_of_int s.detected);
    ("masked", float_of_int s.masked);
    ("missed", float_of_int s.missed);
    ("timed_out", float_of_int s.timed_out);
    ("aborted", float_of_int s.aborted);
  ]

let run ?pool ?timeout_s ?checkpoint ?(resume = false) ?metrics (t : target)
    mutants =
  Obs.Span.with_span "fault.campaign" @@ fun () ->
  let prior = Hashtbl.create 16 in
  (match (checkpoint, resume) with
  | Some path, true when Sys.file_exists path -> (
    match Result.bind (Json.read_file ~path) of_json with
    | Ok outcomes ->
      List.iter (fun o -> Hashtbl.replace prior o.out_id o) outcomes
    | Error _ -> ())
  | _ -> ());
  (* One golden (unfaulted) run serves every mutant's masked-vs-missed
     comparison; it replays the target's precompiled plan. *)
  let golden =
    let r =
      Pipesem.run_compiled ~stop_after:t.tgt_instructions t.tgt_compiled
    in
    Machine.State.snapshot_visible t.tgt_tr.Transform.machine r.Pipesem.state
  in
  let results = Hashtbl.copy prior in
  let todo =
    List.filter (fun m -> not (Hashtbl.mem prior m.Mutate.mut_id)) mutants
  in
  let save () =
    match checkpoint with
    | None -> ()
    | Some path ->
      let done_ =
        List.filter_map
          (fun m -> Hashtbl.find_opt results m.Mutate.mut_id)
          mutants
      in
      Json.write_file ~path (to_json done_)
  in
  let drive pool =
    let batch = max 1 (2 * Exec.Pool.size pool) in
    let rec chunks = function
      | [] -> []
      | xs ->
        let rec split n = function
          | rest when n = 0 -> ([], rest)
          | [] -> ([], [])
          | x :: rest ->
            let a, b = split (n - 1) rest in
            (x :: a, b)
        in
        let c, rest = split batch xs in
        c :: chunks rest
    in
    List.iter
      (fun chunk ->
        let rs =
          Exec.Pool.map_result ?timeout_s pool
            (fun ~cancel m -> classify ~cancel t ~golden m)
            chunk
        in
        List.iter2
          (fun (m : Mutate.mutant) r ->
            let o =
              match r with
              | Exec.Pool.Done o -> o
              | Exec.Pool.Timed_out _ ->
                {
                  out_id = m.Mutate.mut_id;
                  out_fault =
                    Format.asprintf "%a" Mutate.pp_fault m.Mutate.mut_fault;
                  out_class = Timed_out;
                  out_evidence = "cancelled by the per-mutant timeout";
                }
              | Exec.Pool.Failed (e, _) ->
                {
                  out_id = m.Mutate.mut_id;
                  out_fault =
                    Format.asprintf "%a" Mutate.pp_fault m.Mutate.mut_fault;
                  out_class = Aborted;
                  out_evidence = "classification died: " ^ Printexc.to_string e;
                }
              | Exec.Pool.Cancelled _ ->
                {
                  out_id = m.Mutate.mut_id;
                  out_fault =
                    Format.asprintf "%a" Mutate.pp_fault m.Mutate.mut_fault;
                  out_class = Aborted;
                  out_evidence = "classification cancelled explicitly";
                }
            in
            Hashtbl.replace results m.Mutate.mut_id o)
          chunk rs;
        save ())
      (chunks todo)
  in
  (match pool with
  | Some p -> drive p
  | None -> Exec.Pool.with_pool ~size:1 drive);
  let outcomes =
    List.filter_map (fun m -> Hashtbl.find_opt results m.Mutate.mut_id) mutants
  in
  let s = summarize outcomes in
  (match metrics with
  | None -> ()
  | Some reg ->
    List.iter
      (fun (name, v) ->
        Obs.Metrics.add (Obs.Metrics.counter reg ("fault." ^ name))
          (int_of_float v))
      (breakdown s));
  (outcomes, s)

let pp_outcome ppf o =
  Format.fprintf ppf "%-10s %-28s %s" (class_label o.out_class) o.out_id
    o.out_evidence

let pp_summary ppf s =
  Format.fprintf ppf
    "%d mutants: %d detected, %d masked, %d MISSED, %d timed out, %d aborted"
    s.mutants s.detected s.masked s.missed s.timed_out s.aborted
