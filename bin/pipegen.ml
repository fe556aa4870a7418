(* pipegen: the pipeline transformation tool as a command line.

   Takes a built-in prepared sequential machine, performs the paper's
   steps 3) and 4) — forwarding and interlock synthesis plus the stall
   engine and speculation support — and emits reports, HDL, the
   generated proof, or runs the verification.

   The subcommands are thin adapters over [Service]: argv parses into
   a {!Service.Request.t}, {!Service.Handler.handle} evaluates it, and
   the response's text/exit-code are printed verbatim — the same code
   path [pipegen serve] drives from JSON lines, so the CLI and the
   daemon cannot drift apart. *)

let machines = Service.Machine_spec.names

(* A failed check in the legacy (not yet service-backed) subcommands:
   run, trace, symbolic, perf.  Exit codes come from the one policy in
   {!Service.Response}. *)
exception Failed_check of string

let guard f =
  let fail code msg =
    Format.eprintf "pipegen: %s@." msg;
    exit (Service.Response.error_exit_code code)
  in
  try f () with
  | Service.Handler.Invalid_request msg -> fail Service.Response.Usage msg
  | Failed_check msg -> fail Service.Response.Failed_check msg
  | Pipeline.Transform.Transform_error msg ->
    fail Service.Response.Internal ("transform error: " ^ msg)
  | Hw.Expr.Ill_typed msg ->
    fail Service.Response.Internal ("ill-typed expression: " ^ msg)
  | Sys_error msg | Failure msg -> fail Service.Response.Internal msg

let parse_machine name =
  match Service.Machine_spec.of_string name with
  | Ok m -> m
  | Error msg -> raise (Service.Handler.Invalid_request msg)

let spec machine kernel program_file interlock_only impl =
  {
    Service.Request.machine = parse_machine machine;
    kernel;
    program_file;
    interlock_only;
    impl;
  }

(* Print a response the way the subcommands always have: payload text
   on stdout, the failure diagnostic (if any) as "pipegen: ..." on
   stderr, process status from the response. *)
let finish ?(print = Service.Response.text) resp =
  (match resp.Service.Response.result with
  | Ok payload -> print_string (print payload)
  | Error _ -> ());
  (match Service.Response.failure_message resp with
  | Some msg -> Format.eprintf "pipegen: %s@." msg
  | None -> ());
  match Service.Response.exit_code resp with 0 -> `Ok () | n -> exit n

let sel_tr (s : Service.Handler.selection) =
  Workload.Sim.transform s.Service.Handler.sim

let sel_instructions (s : Service.Handler.selection) =
  Workload.Sim.instructions s.Service.Handler.sim

open Cmdliner

let machine_arg =
  let doc =
    Printf.sprintf "Machine to transform (%s)." (String.concat ", " machines)
  in
  Arg.(value & pos 0 string "dlx5" & info [] ~docv:"MACHINE" ~doc)

let kernel_arg =
  let doc = "DLX kernel to load into instruction memory." in
  Arg.(value & opt (some string) None & info [ "kernel"; "k" ] ~docv:"NAME" ~doc)

let program_arg =
  let doc = "DLX assembly file to load into instruction memory." in
  Arg.(value & opt (some file) None & info [ "program"; "p" ] ~docv:"FILE" ~doc)

let interlock_arg =
  let doc = "Interlock-only mode: no forwarding paths (baseline E5)." in
  Arg.(value & flag & info [ "interlock-only" ] ~doc)

let tree_arg =
  let doc =
    "Selection network implementation: chain (default, figure 2), tree \
     (find-first-one + balanced multiplexers) or bus (tri-state drivers)."
  in
  Arg.(
    value
    & opt (enum [ ("chain", Hw.Circuits.Chain); ("tree", Hw.Circuits.Tree);
                  ("bus", Hw.Circuits.Bus) ])
        Hw.Circuits.Chain
    & info [ "impl" ] ~docv:"IMPL" ~doc)

let jobs_arg =
  let doc =
    "Parallelism for verification: the consistency run, obligation suite and \
     checkers fan out over an OCaml domain pool of $(docv) domains (results \
     are bit-identical at any value).  Defaults to the host's recommended \
     domain count; 1 disables the pool."
  in
  Arg.(
    value
    & opt int (Exec.Pool.default_size ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Run [f pool] inside a pool of [jobs] domains; [-j 1] passes no pool
   at all (the pure serial path, not even an inline pool). *)
let with_jobs jobs f =
  if jobs < 1 then
    raise (Service.Handler.Invalid_request "-j must be at least 1")
  else if jobs = 1 then f None
  else Exec.Pool.with_pool ~size:jobs (fun pool -> f (Some pool))

let common machine kernel program_file interlock tree =
  Service.Handler.select (spec machine kernel program_file interlock tree)

(* Build the request, evaluate it through the service handler (the
   serve code path), print the response. *)
let dispatch ?id ?jobs ?checkpoint ?resume ?print mk_spec kind =
  guard @@ fun () ->
  let req = Service.Request.make ?id ~spec:(mk_spec ()) kind in
  let resp =
    match jobs with
    | None -> Service.Handler.handle ?checkpoint ?resume req
    | Some jobs ->
      with_jobs jobs @@ fun pool ->
      Service.Handler.handle ?pool ?checkpoint ?resume req
  in
  finish ?print resp

let show_cmd =
  let run machine kernel program_file interlock tree =
    dispatch
      (fun () -> spec machine kernel program_file interlock tree)
      (Service.Request.Transform { verilog = false })
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the machine and the generated hardware.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg))

let verilog_cmd =
  let run machine kernel program_file interlock tree =
    dispatch
      (fun () -> spec machine kernel program_file interlock tree)
      (Service.Request.Transform { verilog = true })
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Emit the generated control logic as HDL.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg))

let verify_cmd =
  let run machine kernel program_file interlock tree jobs =
    dispatch ~jobs
      (fun () -> spec machine kernel program_file interlock tree)
      Service.Request.Verify
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the generated proof obligations and the checkers.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ jobs_arg))

let proof_cmd =
  let run machine kernel program_file interlock tree jobs =
    dispatch ~jobs
      (fun () -> spec machine kernel program_file interlock tree)
      Service.Request.Proof
  in
  Cmd.v
    (Cmd.info "proof"
       ~doc:"Emit the PVS-style proof theory with discharge annotations.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ jobs_arg))

let run_cmd =
  let diagram_arg =
    let doc = "Print the instruction/cycle pipeline diagram." in
    Cmdliner.Arg.(value & flag & info [ "diagram"; "d" ] ~doc)
  in
  let run machine kernel program_file interlock tree diagram =
    guard @@ fun () ->
    let s = common machine kernel program_file interlock tree in
    let result =
      if diagram then begin
        let d, result =
          Pipeline.Diagram.capture ~stop_after:(sel_instructions s) (sel_tr s)
        in
        print_string d;
        result
      end
      else Workload.Sim.run s.Service.Handler.sim
    in
    let row =
      Workload.Sim.stats_row ~label:machine s.Service.Handler.sim
        result.Pipeline.Pipesem.stats
    in
    Format.printf "%a" Workload.Stats.pp_table [ row ];
    (match result.Pipeline.Pipesem.outcome with
    | Pipeline.Pipesem.Completed -> ()
    | Pipeline.Pipesem.Deadlocked -> raise (Failed_check "simulation deadlocked")
    | Pipeline.Pipesem.Out_of_cycles ->
      raise (Failed_check "simulation ran out of cycles"));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate the pipelined machine and report CPI.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ diagram_arg))

let trace_cmd =
  let out_arg =
    let doc = "Output VCD file." in
    Cmdliner.Arg.(
      value & opt string "pipeline.vcd" & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run machine kernel program_file interlock tree out =
    guard @@ fun () ->
    let s = common machine kernel program_file interlock tree in
    let result = Workload.Sim.trace_vcd ~path:out s.Service.Handler.sim in
    Format.printf "wrote %s (%d cycles, %d instructions)@." out
      result.Pipeline.Pipesem.stats.Pipeline.Pipesem.cycles
      result.Pipeline.Pipesem.stats.Pipeline.Pipesem.retired;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Simulate and dump a VCD waveform of the stall engine.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ out_arg))

let dot_cmd =
  let run machine kernel program_file interlock tree =
    guard @@ fun () ->
    let s = common machine kernel program_file interlock tree in
    print_string (Pipeline.Dot.forwarding_graph (sel_tr s));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Emit a Graphviz diagram of the pipeline and its forwarding paths.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg))

let plan_cmd =
  let dump_arg =
    let doc = "Dump the full instruction tape." in
    Cmdliner.Arg.(value & flag & info [ "dump" ] ~doc)
  in
  let run machine kernel program_file interlock tree dump =
    guard @@ fun () ->
    let s = common machine kernel program_file interlock tree in
    let p = Pipeline.Pipesem.plan (Pipeline.Pipesem.compile (sel_tr s)) in
    Format.printf "tape:@.";
    List.iter
      (fun (k, v) -> Format.printf "  %-16s %6d@." k v)
      (Hw.Plan.stats p);
    if dump then Format.printf "@.%a" Hw.Plan.pp p;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show this machine's evaluation tape: slot, constant and \
          instruction counts with a per-opcode histogram, and (with \
          --dump) the full tape.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ dump_arg))

let machine_opt_arg =
  let doc =
    Printf.sprintf "Machine to transform (%s)." (String.concat ", " machines)
  in
  Arg.(
    value & opt string "dlx5" & info [ "machine"; "m" ] ~docv:"MACHINE" ~doc)

let stats_cmd =
  let json_arg =
    let doc = "Emit the hazard summary as JSON on stdout." in
    Cmdliner.Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run machine kernel program_file interlock tree json =
    let print =
      if not json then Service.Response.text
      else
        function
        | Service.Response.Stats_report { summary; _ } ->
          Obs.Json.to_string summary ^ "\n"
        | p -> Service.Response.text p
    in
    dispatch ~print
      (fun () -> spec machine kernel program_file interlock tree)
      Service.Request.Stats
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Simulate with hazard attribution and print the CPI decomposition \
          (CPI = 1 + stall components, exact cycle accounting).")
    Term.(
      ret
        (const run $ machine_opt_arg $ kernel_arg $ program_arg
       $ interlock_arg $ tree_arg $ json_arg))

let profile_cmd =
  let out_arg =
    let doc = "Output trace-event JSON file (Perfetto / chrome://tracing)." in
    Cmdliner.Arg.(
      value
      & opt string "pipegen_trace.json"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run machine kernel program_file interlock tree out jobs =
    guard @@ fun () ->
    Obs.Span.set_enabled true;
    let s = common machine kernel program_file interlock tree in
    let (_ : Pipeline.Pipesem.result) = Workload.Sim.run s.Service.Handler.sim in
    let v =
      with_jobs jobs @@ fun pool ->
      Core.verify ?reference:s.Service.Handler.reference ?pool
        ~max_instructions:(sel_instructions s)
        ~compiled:(Workload.Sim.compiled s.Service.Handler.sim)
        (sel_tr s)
    in
    let records = Obs.Span.records () in
    Obs.Trace_event.write_file ~path:out ~process_name:"pipegen" records;
    Format.printf "wrote %s (%d spans, verified=%b)@." out
      (List.length records) (Core.verified v);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run transform, simulation and verification with phase profiling \
          enabled and write a Chrome trace-event JSON.")
    Term.(
      ret
        (const run $ machine_opt_arg $ kernel_arg $ program_arg
       $ interlock_arg $ tree_arg $ out_arg $ jobs_arg))

let symbolic_cmd =
  let insn_arg =
    let doc = "Number of instructions to prove (BDD sizes grow with it)." in
    Cmdliner.Arg.(value & opt int 8 & info [ "instructions"; "n" ] ~doc)
  in
  let run machine kernel program_file interlock tree insns =
    guard @@ fun () ->
    let s = common machine kernel program_file interlock tree in
    let outcome =
      Proof_engine.Symsim.check
        ~instructions:(min insns (sel_instructions s))
        (sel_tr s)
    in
    Format.printf "%a@." Proof_engine.Symsim.pp_outcome outcome;
    match outcome with
    | Proof_engine.Symsim.Proved _ -> `Ok ()
    | Proof_engine.Symsim.Control_depends_on_data _ -> `Ok ()
    | Proof_engine.Symsim.Mismatch _ ->
      raise (Failed_check "symbolic co-simulation found a mismatch")
    | Proof_engine.Symsim.Stopped _ ->
      raise (Failed_check "symbolic co-simulation stopped at the liveness bound")
  in
  Cmd.v
    (Cmd.info "symbolic"
       ~doc:
         "Prove data consistency for all initial register-file contents at \
          once (symbolic co-simulation).")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ insn_arg))

let campaign_cmd =
  let seed_arg =
    let doc = "Random seed for mutant enumeration and sampling." in
    Cmdliner.Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let mutants_arg =
    let doc = "Run at most $(docv) mutants (a seeded-shuffle sample)." in
    Cmdliner.Arg.(
      value & opt (some int) None & info [ "mutants"; "n" ] ~docv:"N" ~doc)
  in
  let transients_arg =
    let doc = "Number of seeded transient bit-flip mutants." in
    Cmdliner.Arg.(value & opt int 8 & info [ "transients" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-mutant budget in seconds; a mutant past it is cancelled \
       cooperatively and classified timed_out."
    in
    Cmdliner.Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SEC" ~doc)
  in
  let hang_arg =
    let doc =
      "Include the wedged-engine mutant (spins until the timeout fires)."
    in
    Cmdliner.Arg.(value & flag & info [ "hang" ] ~doc)
  in
  let bmc_arg =
    let doc =
      "Add an exhaustive program sweep per mutant (toy3 only: every program \
       over a small alphabet)."
    in
    Cmdliner.Arg.(value & flag & info [ "bmc" ] ~doc)
  in
  let checkpoint_arg =
    let doc = "JSON checkpoint file, rewritten after every batch." in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc = "Skip mutants already classified in the checkpoint file." in
    Cmdliner.Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the outcomes as JSON on stdout." in
    Cmdliner.Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run machine kernel program_file interlock tree jobs seed mutants
      transients timeout hang bmc checkpoint resume json =
    let print =
      if not json then Service.Response.text
      else
        function
        | Service.Response.Campaign_report { outcomes; _ } ->
          Obs.Json.to_string outcomes ^ "\n"
        | p -> Service.Response.text p
    in
    dispatch ~jobs ?checkpoint ~resume ~print
      (fun () -> spec machine kernel program_file interlock tree)
      (Service.Request.Campaign
         { seed; mutants; transients; hang; timeout_s = timeout; bmc })
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fault-injection detection-coverage campaign: mutate the generated \
          pipeline control, run the verification stack against every mutant, \
          and fail on any mutant that corrupts architectural state without \
          being detected.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ jobs_arg $ seed_arg $ mutants_arg $ transients_arg
       $ timeout_arg $ hang_arg $ bmc_arg $ checkpoint_arg $ resume_arg
       $ json_arg))

let sweep_cmd =
  let axis_arg =
    let doc = "Sweep axis: dependency (operand bias) or branch (taken rate)." in
    Cmdliner.Arg.(
      value
      & opt
          (enum
             [
               ("dependency", Service.Request.Dependency);
               ("branch", Service.Request.Branch);
             ])
          Service.Request.Dependency
      & info [ "axis" ] ~docv:"AXIS" ~doc)
  in
  let points_arg =
    let doc = "Sweep points (dependency biases / taken fractions)." in
    Cmdliner.Arg.(
      value
      & opt (list float) [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
      & info [ "points" ] ~docv:"P,P,..." ~doc)
  in
  let length_arg =
    let doc = "Generated program length (instructions)." in
    Cmdliner.Arg.(value & opt int 32 & info [ "length" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random seed for program generation." in
    Cmdliner.Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let lanes_arg =
    let doc =
      "Drive the verified sweep points through the bit-parallel lane engine \
       (up to 62 points per machine word).  The rows are bit-identical to \
       the scalar sweep."
    in
    Cmdliner.Arg.(value & flag & info [ "lanes" ] ~doc)
  in
  let run machine kernel program_file interlock tree jobs axis points length
      seed lanes =
    dispatch ~jobs
      (fun () -> spec machine kernel program_file interlock tree)
      (Service.Request.Sweep { axis; points; length; seed; lanes })
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "CPI as a function of a workload parameter: generate a program per \
          point, simulate and verify it on the selected machine (compiled \
          once per shape), and print the metric table.")
    Term.(
      ret
        (const run $ machine_arg $ kernel_arg $ program_arg $ interlock_arg
       $ tree_arg $ jobs_arg $ axis_arg $ points_arg $ length_arg $ seed_arg
       $ lanes_arg))

let serve_cmd =
  let timeout_arg =
    let doc = "Per-request budget in seconds (unbounded when absent)." in
    Cmdliner.Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SEC" ~doc)
  in
  let capacity_arg =
    let doc = "Verdict-cache capacity (entries, FIFO eviction)." in
    Cmdliner.Arg.(value & opt int 256 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let metrics_arg =
    let doc = "Write the service metrics (JSON) to $(docv) on exit." in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let socket_arg =
    let doc = "Serve on this Unix socket instead of stdin/stdout." in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let journal_arg =
    let doc =
      "Write-ahead request journal: admitted requests and completed \
       responses are appended (and fsync'd) here, and an existing journal \
       is replayed on startup — completed responses re-emitted verbatim, \
       unfinished requests re-evaluated."
    in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Admission bound: requests beyond this many distinct evaluations per \
       batch are shed with a typed overloaded response."
    in
    Cmdliner.Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry budget for transient evaluation failures (exponential \
       backoff; evaluation is pure, so re-running is safe)."
    in
    Cmdliner.Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let chaos_arg =
    let doc =
      "Arm the seeded fault injector on the evaluation pool.  $(docv) is \
       SEED[,key=value,...] with keys crash, delay, delay_ms, wedge, \
       wedge_ms, alloc, alloc_kwords, kill and matching *_budget caps, \
       e.g. --chaos 42,crash=0.2,crash_budget=2,delay=0.3."
    in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let run jobs timeout_s capacity metrics_out socket journal max_queue retries
      chaos =
    guard @@ fun () ->
    if jobs < 1 then
      raise (Service.Handler.Invalid_request "-j must be at least 1");
    if max_queue < 1 then
      raise (Service.Handler.Invalid_request "--max-queue must be at least 1");
    if retries < 0 then
      raise (Service.Handler.Invalid_request "--retries must be non-negative");
    let chaos =
      match chaos with
      | None -> None
      | Some spec -> (
        match Exec.Chaos.config_of_string spec with
        | Ok c -> Some c
        | Error msg -> raise (Service.Handler.Invalid_request msg))
    in
    let config =
      {
        Service.Serve.jobs;
        timeout_s;
        capacity;
        metrics_out;
        socket;
        journal;
        max_queue;
        retries;
        chaos;
      }
    in
    match Service.Serve.run ~config () with 0 -> `Ok () | n -> exit n
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running verification service: read one JSON request per line \
          (stdin or a Unix socket), answer with one JSON response per line \
          in input order.  Identical requests coalesce, repeated requests \
          are answered from a content-addressed verdict cache, and each \
          request runs isolated under a per-request timeout.  With \
          --journal the service is crash-safe: a killed server replays its \
          write-ahead journal on restart.  --max-queue bounds admission \
          (overloaded responses carry retry-after), --chaos arms seeded \
          fault injection for robustness testing.")
    Term.(
      ret
        (const run $ jobs_arg $ timeout_arg $ capacity_arg $ metrics_arg
       $ socket_arg $ journal_arg $ max_queue_arg $ retries_arg $ chaos_arg))

let perf_cmd =
  let history_arg =
    let doc =
      "History file to read (default: BENCH_history.jsonl at the repository \
       root)."
    in
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let diff_arg =
    let doc =
      "Diff two records instead of printing trends.  $(docv) selects a \
       record: a negative index from the end (-1 = newest), a non-negative \
       index from the start, or a commit prefix.  Give the flag twice."
    in
    Cmdliner.Arg.(
      value & opt_all string [] & info [ "diff" ] ~docv:"REC" ~doc)
  in
  let window_arg =
    let doc = "Trend window: span the last $(docv) records." in
    Cmdliner.Arg.(value & opt int 10 & info [ "last" ] ~docv:"K" ~doc)
  in
  let run history diff k =
    guard @@ fun () ->
    let usage msg = raise (Service.Handler.Invalid_request msg) in
    let path =
      match history with Some p -> p | None -> Obs.History.default_path ()
    in
    if not (Sys.file_exists path) then
      usage
        (Printf.sprintf
           "no history at %s (seed it with `bench --smoke --history` or \
            `dune build @check`)"
           path);
    let records =
      match Obs.History.read ~path with
      | Ok r -> r
      | Error msg -> raise (Failed_check msg)
    in
    (match diff with
    | [] ->
      Format.printf "perf history %s@." path;
      Format.printf "%a" (Obs.History.pp_trends ~k) records
    | [ a; b ] ->
      let sel spec =
        match Obs.History.select records spec with
        | Ok r -> r
        | Error msg -> usage msg
      in
      let ra = sel a and rb = sel b in
      let rows = Obs.History.diff ra rb in
      if rows = [] then
        Format.printf "records %s and %s carry identical metrics@."
          ra.Obs.History.commit rb.Obs.History.commit
      else Format.printf "%a" (Obs.History.pp_diff ~a:ra ~b:rb) rows
    | _ -> usage "--diff takes exactly two selectors (repeat the flag)");
    `Ok ()
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Report trends from the per-commit bench history \
          (BENCH_history.jsonl): deterministic WORK.* scores, timing rows \
          and scheduling counters over the last K records, or an exact diff \
          of any two records.")
    Term.(ret (const run $ history_arg $ diff_arg $ window_arg))

let () =
  let info =
    Cmd.info "pipegen" ~version:"1.0"
      ~doc:
        "Automated pipeline design: transform a prepared sequential machine \
         into a pipelined machine with synthesized forwarding and interlock."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ show_cmd; verilog_cmd; verify_cmd; proof_cmd; run_cmd; stats_cmd;
            profile_cmd; trace_cmd; dot_cmd; plan_cmd; symbolic_cmd;
            campaign_cmd; sweep_cmd; serve_cmd; perf_cmd ]))
