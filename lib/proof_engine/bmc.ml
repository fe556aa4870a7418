type outcome = {
  programs : int;
  failures : (int list * string) list;
}

let ok o = o.failures = []

let reason_of_result = function
  | Error (f : Consistency.failure) ->
    Some
      (Printf.sprintf "%s failed: %s" f.Consistency.failing_phase
         f.Consistency.message)
  | Ok report ->
    if Consistency.ok report then None
    else
      Some
        (match report.Consistency.violations with
        | v :: _ ->
          Printf.sprintf "instr %d register %s: expected %s, got %s"
            v.Consistency.tag v.Consistency.register v.Consistency.expected
            v.Consistency.got
        | [] -> (
          match report.Consistency.outcome with
          | Pipeline.Pipesem.Deadlocked -> "deadlock"
          | Pipeline.Pipesem.Out_of_cycles -> "out of cycles"
          | Pipeline.Pipesem.Completed -> "lemma or final-state failure"))

let exhaustive ?(max_failures = 5) ?ext ?pool ?inject ?(lanes = false) ?cancel
    ?load ~build ~alphabet ~length () =
  Obs.Span.with_span "verify.bmc" @@ fun () ->
  (* Materialize the program space in enumeration order, then check
     every program independently — the unit of pool fan-out.  Failures
     keep the enumeration order, so the outcome is identical to the
     serial sweep at any pool size. *)
  let rec enumerate prefix remaining =
    if remaining = 0 then [ List.rev prefix ]
    else
      List.concat_map
        (fun insn -> enumerate (insn :: prefix) (remaining - 1))
        alphabet
  in
  let programs = enumerate [] length in
  Obs.Counters.add Obs.Counters.Bmc_programs (List.length programs);
  let max_instructions = length + 4 in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (program, Some reason) :: rest -> (program, reason) :: take (n - 1) rest
    | (_, None) :: rest -> take n rest
  in
  match load with
  | None ->
    (* Rebuild path: each program builds its own machine and plan. *)
    let check program =
      match build program with
      | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
      | exception e -> Some ("transform failed: " ^ Printexc.to_string e)
      | t ->
        reason_of_result
          (Consistency.check_result ?ext ?inject ?cancel ~max_instructions t)
    in
    let checked =
      Exec.Pool.map_opt pool (fun program -> (program, check program)) programs
    in
    { programs = List.length programs; failures = take max_failures checked }
  | Some load -> (
    (* Batched path: [build] runs once, on the first enumerated
       program, to fix the machine shape; every program (including
       the first) is then checked by rebinding [load program] over
       the compiled shape through per-domain sessions.  Requires the
       shape-invariance contract: [build p] differs from
       [build p'] only in the initial values that [load] covers. *)
    let shape =
      match programs with
      | [] -> Ok None
      | p0 :: _ -> (
        match build p0 with
        | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
        | exception e -> Error ("transform failed: " ^ Printexc.to_string e)
        | t -> (
          match Consistency.shape t with
          | s -> Ok (Some s)
          | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
          | exception Hw.Plan.Compile_error m ->
            Error ("plan compilation failed: " ^ m)
          | exception e ->
            Error ("shape compilation failed: " ^ Printexc.to_string e)))
    in
    (* Lane mode only drives runs the bit-parallel loop can represent:
       no injection hooks (the physical [no_injection] record of
       structural mutants is hook-free and allowed). *)
    let use_lanes =
      lanes
      &&
      match inject with
      | None -> true
      | Some i -> i == Pipeline.Pipesem.no_injection
    in
    if not use_lanes then begin
      let check program =
        match shape with
        | Error reason -> Some reason
        | Ok None -> None
        | Ok (Some shape) ->
          reason_of_result
            (Consistency.check_batched_result ?ext ?inject ?cancel
               ~max_instructions ~init:(load program) shape)
      in
      let checked =
        Exec.Pool.map_opt pool
          (fun program -> (program, check program))
          programs
      in
      { programs = List.length programs; failures = take max_failures checked }
    end
    else begin
      (* Pack consecutive programs (enumeration order preserved) into
         ≤62-lane word packs — the unit of pool fan-out.  A lane
         verdict carries no failure message; the losers are replayed
         through the scalar path below, outside the pool, with their
         counters discarded (the lane run already accounted the
         program's work). *)
      let faulty = inject <> None in
      let rec chunk = function
        | [] -> []
        | l ->
          let rec split n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: tl -> split (n - 1) (x :: acc) tl
          in
          let pack, rest = split Hw.Lanes.max_lanes [] l in
          pack :: chunk rest
      in
      let packs = chunk programs in
      let check_pack pack =
        match shape with
        | Error reason -> List.map (fun p -> (p, `Fail reason)) pack
        | Ok None -> []
        | Ok (Some shape) ->
          let parr = Array.of_list pack in
          let inits = Array.map load parr in
          let verdicts =
            Consistency.check_lanes ?ext ?cancel ~faulty ~max_instructions
              ~inits shape
          in
          List.of_seq
            (Seq.mapi
               (fun l p ->
                 (p, if verdicts.(l).Consistency.lv_ok then `Pass else `Replay))
               (Array.to_seq parr))
      in
      let checked : (int list * [ `Pass | `Replay | `Fail of string ]) list =
        List.concat (Exec.Pool.map_opt pool check_pack packs)
      in
      let replay program =
        match shape with
        | Error reason -> reason
        | Ok None -> assert false
        | Ok (Some shape) ->
          Obs.Counters.with_discarded (fun () ->
              match
                reason_of_result
                  (Consistency.check_batched_result ?ext ?inject ?cancel
                     ~max_instructions ~init:(load program) shape)
              with
              | Some reason -> reason
              | None -> "lane/scalar divergence: scalar replay verified clean")
      in
      let rec take_lane n
          (l : (int list * [ `Pass | `Replay | `Fail of string ]) list) =
        match l with
        | [] -> []
        | _ when n = 0 -> []
        | (program, `Replay) :: rest ->
          (program, replay program) :: take_lane (n - 1) rest
        | (program, `Fail reason) :: rest ->
          (program, reason) :: take_lane (n - 1) rest
        | (_, `Pass) :: rest -> take_lane n rest
      in
      {
        programs = List.length programs;
        failures = take_lane max_failures checked;
      }
    end)

let pp ppf o =
  Format.fprintf ppf "exhaustive check: %d programs, %d failures@." o.programs
    (List.length o.failures);
  List.iter
    (fun (prog, reason) ->
      Format.fprintf ppf "  program [%s]: %s@."
        (String.concat "; " (List.map string_of_int prog))
        reason)
    o.failures
