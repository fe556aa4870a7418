type outcome = {
  programs : int;
  failures : (int list * string) list;
}

let ok o = o.failures = []

(* Why one program fails, if it does: a co-simulation that raised
   (a broken mutant) is that program's failure, not the sweep's. *)
let reason check =
  match check () with
  | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
  | exception e ->
    let f = Consistency.failure_of_exn e in
    Some
      (Printf.sprintf "%s failed: %s" f.Consistency.failing_phase
         f.Consistency.message)
  | report ->
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

let exhaustive ?(max_failures = 5) ?ext ?pool ?inject ?cancel ?load ~build
    ~alphabet ~length () =
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
  let check =
    match load with
    | None -> (
      (* Rebuild path: each program builds its own machine and plan. *)
      fun program ->
        match build program with
        | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
        | exception e -> Some ("transform failed: " ^ Printexc.to_string e)
        | t ->
          reason (fun () ->
              Consistency.check ?ext ?inject ?cancel ~max_instructions t))
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
      fun program ->
        match shape with
        | Error reason -> Some reason
        | Ok None -> None
        | Ok (Some shape) ->
          reason (fun () ->
              Consistency.check_batched ?ext ?inject ?cancel ~max_instructions
                ~init:(load program) shape))
  in
  let checked =
    Exec.Pool.map_opt pool (fun program -> (program, check program)) programs
  in
  { programs = List.length programs; failures = take max_failures checked }

let pp ppf o =
  Format.fprintf ppf "exhaustive check: %d programs, %d failures@." o.programs
    (List.length o.failures);
  List.iter
    (fun (prog, reason) ->
      Format.fprintf ppf "  program [%s]: %s@."
        (String.concat "; " (List.map string_of_int prog))
        reason)
    o.failures
