exception Invalid_request of string

type selection = {
  sim : Workload.Sim.t;
  reference : Machine.Seqsem.trace option;
  disasm : (int -> string option) option;
}

type env = {
  shapes : (string, Pipeline.Pipesem.compiled) Hashtbl.t;
  shapes_mutex : Mutex.t;
  env_verdicts : Cache.t;
}

let create_env ?capacity ?metrics () =
  {
    shapes = Hashtbl.create 8;
    shapes_mutex = Mutex.create ();
    env_verdicts = Cache.create ?capacity ?metrics ();
  }

let verdicts env = env.env_verdicts

let invalid fmt = Format.kasprintf (fun msg -> raise (Invalid_request msg)) fmt

(* ------------------------------------------------------------------ *)
(* Machine selection (the CLI's former [select], verbatim semantics)  *)
(* ------------------------------------------------------------------ *)

let kernels () =
  List.map
    (fun (p : Dlx.Progs.t) -> (p.Dlx.Progs.prog_name, p))
    (Dlx.Progs.all_kernels @ [ Dlx.Progs.overflow_trap ])

let unknown ~what ~name ~available =
  invalid "unknown %s %s; available: %s" what name
    (String.concat ", " available)

(* Exact kernel name, or a unique prefix of one ("fib" -> "fib_10"). *)
let find_kernel name =
  let ks = kernels () in
  match List.assoc_opt name ks with
  | Some p -> p
  | None -> (
    match
      List.filter (fun (n, _) -> String.starts_with ~prefix:name n) ks
    with
    | [ (_, p) ] -> p
    | _ -> unknown ~what:"kernel" ~name ~available:(List.map fst ks))

let options_of_spec (spec : Request.spec) =
  {
    Pipeline.Fwd_spec.mode =
      (if spec.Request.interlock_only then Pipeline.Fwd_spec.Interlock_only
       else Pipeline.Fwd_spec.Full);
    impl = spec.Request.impl;
  }

let shape_key (spec : Request.spec) =
  Printf.sprintf "%s/%b/%s"
    (Machine_spec.to_string spec.Request.machine)
    spec.Request.interlock_only
    (match spec.Request.impl with
    | Hw.Circuits.Chain -> "chain"
    | Hw.Circuits.Tree -> "tree"
    | Hw.Circuits.Bus -> "bus")

(* One compile per machine shape: a cached plan is rebound to the
   request's transform (same shape, different program image).  The
   mutex is held across the compile — shapes are few and a compile is
   milliseconds, so serializing the occasional miss is cheaper than
   racing duplicate compiles.  A rebind rejection (the shape drifted,
   e.g. an IMEM sized by a longer program) falls back to a fresh
   compile that replaces the entry. *)
let shared_compiled env spec tr =
  let k = shape_key spec in
  Mutex.lock env.shapes_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock env.shapes_mutex)
    (fun () ->
      match Hashtbl.find_opt env.shapes k with
      | Some c -> (
        match Pipeline.Pipesem.rebind c tr with
        | c' -> c'
        | exception Invalid_argument _ ->
          let c' = Pipeline.Pipesem.compile tr in
          Hashtbl.replace env.shapes k c';
          c')
      | None ->
        let c = Pipeline.Pipesem.compile tr in
        Hashtbl.replace env.shapes k c;
        c)

(* The program a request names — the one reading of its kernel, its
   assembly file or toy3's fixed program.  toy3 ignores [kernel] and
   [program_file], dlx6 ignores [program_file], and no kernel means
   fib_10. *)
type program = {
  words : int list;
  data : (int * int) list;
  instructions : int;  (* dynamic count: the runs' stop_after *)
}

let of_progs (p : Dlx.Progs.t) =
  {
    words = Dlx.Progs.program p;
    data = p.Dlx.Progs.data;
    instructions = p.Dlx.Progs.dyn_instructions;
  }

let load_file variant path =
  match Dlx.Asm_parser.parse_file path with
  | items ->
    (* The parser's "halt" already expanded to the idiom; strip it so
       Progs.make (which appends its own) measures the dynamic count
       correctly. *)
    let rec drop_halt = function
      | [] -> []
      | Dlx.Asm.Label "$halt" :: _ -> []
      | item :: rest -> item :: drop_halt rest
    in
    let config =
      match variant with
      | Dlx.Seq_dlx.With_interrupts { sisr } ->
        { Dlx.Refmodel.with_interrupts = true; sisr }
      | Dlx.Seq_dlx.Base | Dlx.Seq_dlx.Branch_predict ->
        Dlx.Refmodel.default_config
    in
    (* An undefined label or a program that never halts is the
       caller's error too. *)
    (try Dlx.Progs.make ~config (Filename.basename path) (drop_halt items)
     with Dlx.Asm.Asm_error msg | Dlx.Progs.Runaway msg ->
       invalid "%s: %s" path msg)
  | exception Sys_error msg -> invalid "%s" msg
  | exception Dlx.Asm_parser.Parse_error { line; message } ->
    invalid "%s:%d: %s" path line message

let resolve (spec : Request.spec) =
  let kernel () =
    find_kernel (Option.value spec.Request.kernel ~default:"fib_10")
  in
  match (spec.Request.machine, spec.Request.program_file) with
  | Machine_spec.Toy3, _ ->
    {
      words = Core.Toy.default_program;
      data = [];
      instructions = List.length Core.Toy.default_program;
    }
  | Machine_spec.Dlx6, _ | _, None -> of_progs (kernel ())
  | m, Some path ->
    of_progs (load_file (Option.get (Machine_spec.variant m)) path)

let selection ?env (spec : Request.spec) prog =
  let options = options_of_spec spec in
  let build ?reference ?disasm tr =
    let compiled = Option.map (fun e -> shared_compiled e spec tr) env in
    {
      sim =
        Workload.Sim.make ?compiled ?reference
          ~instructions:prog.instructions tr;
      reference;
      disasm;
    }
  in
  let dlx variant tr =
    let reference =
      Dlx.Seq_dlx.ref_trace ~data:prog.data variant ~program:prog.words
        ~instructions:prog.instructions
    in
    build ~reference
      ~disasm:(Dlx.Seq_dlx.disasm ~reference ~program:prog.words)
      tr
  in
  match spec.Request.machine with
  | Machine_spec.Toy3 ->
    build (Core.Toy.transform ~options ~program:prog.words ())
  | Machine_spec.Dlx6 ->
    (* The DLX with a two-stage memory, derived mechanically by
       splitting EX/MEM (Machine.Retime). *)
    let m =
      Machine.Retime.insert_passthrough
        (Dlx.Seq_dlx.machine ~data:prog.data Dlx.Seq_dlx.Base
           ~program:prog.words)
        ~at:3
    in
    dlx Dlx.Seq_dlx.Base
      (Pipeline.Transform.run ~options
         ~hints:(Dlx.Seq_dlx.hints Dlx.Seq_dlx.Base)
         m)
  | (Machine_spec.Dlx5 | Machine_spec.Dlx5_intr | Machine_spec.Dlx5_bp) as m ->
    let variant = Option.get (Machine_spec.variant m) in
    dlx variant
      (Dlx.Seq_dlx.transform ~options ~data:prog.data variant
         ~program:prog.words)

let select ?env spec = selection ?env spec (resolve spec)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let sel_tr s = Workload.Sim.transform s.sim
let sel_instructions s = Workload.Sim.instructions s.sim

(* Render through a buffer formatter so responses carry exactly the
   bytes the CLI used to [Format.printf]. *)
let render f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let run_verification ?pool ?cancel s =
  match
    Core.verify_result ?reference:s.reference ?pool ?cancel
      ~max_instructions:(sel_instructions s)
      ~compiled:(Workload.Sim.compiled s.sim) ?disasm:s.disasm (sel_tr s)
  with
  | Ok v -> v
  | Error { Core.phase; message } ->
    raise (Failure (Printf.sprintf "%s: %s" phase message))

let eval_verify ?pool ?cancel s =
  let v = run_verification ?pool ?cancel s in
  let cov =
    Pipeline.Coverage.measure ~compiled:(Workload.Sim.compiled s.sim)
      ~stop_after:(sel_instructions s) (sel_tr s)
  in
  let holes = Pipeline.Coverage.holes cov in
  let verified = Core.verified v in
  let text =
    render (fun fmt ->
        Format.fprintf fmt "%a" Proof_engine.Consistency.pp_report
          v.Core.consistency;
        Format.fprintf fmt "%a" Proof_engine.Liveness.pp_report v.Core.liveness;
        Format.fprintf fmt "%a" Pipeline.Coverage.pp cov;
        List.iter (Format.fprintf fmt "  coverage hole: %s@.") holes;
        Format.fprintf fmt "obligations:@.%a" Proof_engine.Obligation.pp
          v.Core.obligations;
        if verified then Format.fprintf fmt "VERIFIED@."
        else Format.fprintf fmt "VERIFICATION FAILED@.")
  in
  let summary =
    {
      Response.v_verified = verified;
      v_violations =
        List.length v.Core.consistency.Proof_engine.Consistency.violations;
      v_edge_checks = v.Core.consistency.Proof_engine.Consistency.edge_checks;
      v_liveness_ok = Proof_engine.Liveness.ok v.Core.liveness;
      v_max_gap = v.Core.liveness.Proof_engine.Liveness.max_gap;
      v_obligations = List.length v.Core.obligations;
      v_obligations_failed =
        List.filter_map
          (fun (o : Proof_engine.Obligation.obligation) ->
            match o.Proof_engine.Obligation.ob_status with
            | Proof_engine.Obligation.Failed _ ->
              Some o.Proof_engine.Obligation.ob_id
            | Proof_engine.Obligation.Pending
            | Proof_engine.Obligation.Discharged _ ->
              None)
          v.Core.obligations;
      v_coverage_holes = holes;
    }
  in
  Response.Verdict { summary; text }

let eval_proof ?pool ?cancel s =
  let v = run_verification ?pool ?cancel s in
  Response.Proof_text
    { verified = Core.verified v; text = Core.proof_script (sel_tr s) v }

let eval_transform ~verilog s =
  let tr = sel_tr s in
  Response.Transformed
    {
      summary =
        render (fun fmt ->
            Format.fprintf fmt "%a@." Machine.Spec.pp_summary
              tr.Pipeline.Transform.base);
      inventory =
        render (fun fmt ->
            Format.fprintf fmt "%a" Pipeline.Report.pp_inventory tr);
      verilog = (if verilog then Some (Core.verilog tr) else None);
    }

exception Check_failed of string

let eval_stats s =
  let result, summary = Workload.Sim.attribute s.sim in
  (match result.Pipeline.Pipesem.outcome with
  | Pipeline.Pipesem.Completed -> ()
  | Pipeline.Pipesem.Deadlocked -> raise (Check_failed "simulation deadlocked")
  | Pipeline.Pipesem.Out_of_cycles ->
    raise (Check_failed "simulation ran out of cycles"));
  let text =
    render (fun fmt ->
        Format.fprintf fmt "%a" Obs.Hazard.pp_summary summary;
        Format.fprintf fmt "%a" Obs.Hazard.pp_decomposition
          (Obs.Hazard.decompose summary))
  in
  Response.Stats_report { summary = Obs.Hazard.summary_to_json summary; text }

let eval_campaign ?pool ?checkpoint ?(resume = false) ~machine ~seed ~mutants
    ~transients ~hang ~timeout_s ~bmc s =
  let tr = sel_tr s in
  let all = Fault.Mutate.enumerate ~transients ~seed ~hang tr in
  let selected =
    match mutants with
    | None -> all
    | Some count ->
      if count < 1 then invalid "--mutants must be at least 1"
      else Fault.Mutate.sample ~seed ~count all
  in
  let bmc =
    if not bmc then None
    else if machine <> Machine_spec.Toy3 then
      invalid "--bmc is only available for toy3"
    else
      let alphabet =
        [
          Core.Toy.encode ~dst:1 ~src1:1 ~src2:2;
          Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
          Core.Toy.encode ~dst:1 ~src1:2 ~src2:2;
        ]
      in
      Some ((fun program -> Core.Toy.transform ~program ()), alphabet, 2)
  in
  let bmc_load program = Core.Toy.image ~program in
  let target =
    Fault.Campaign.make_target ?reference:s.reference
      ~instructions:(sel_instructions s) ?disasm:s.disasm ?bmc ~bmc_load tr
  in
  let outcomes, summary =
    Fault.Campaign.run ?pool ~timeout_s ?checkpoint ~resume target selected
  in
  let text =
    render (fun fmt ->
        List.iter
          (fun o -> Format.fprintf fmt "%a@." Fault.Campaign.pp_outcome o)
          outcomes;
        Format.fprintf fmt "%a@." Fault.Campaign.pp_summary summary)
  in
  Response.Campaign_report
    { summary; outcomes = Fault.Campaign.to_json outcomes; text }

let eval_sweep ?pool ~(spec : Request.spec) ~axis ~points ~length ~seed
    ~lanes () =
  let variant =
    match Machine_spec.variant spec.Request.machine with
    | Some v -> v
    | None ->
      invalid "sweep requires a five-stage DLX machine (%s)"
        (String.concat ", "
           (List.filter_map
              (fun m ->
                Option.map
                  (fun _ -> Machine_spec.to_string m)
                  (Machine_spec.variant m))
              Machine_spec.all))
  in
  let config =
    { Workload.Sweep.default with Workload.Sweep.variant;
      options = options_of_spec spec }
  in
  let rows =
    match (axis : Request.sweep_axis) with
    | Request.Dependency ->
      Workload.Sweep.dependency_sweep ~config ?pool ~lanes ~biases:points
        ~length ~seed ()
    | Request.Branch ->
      Workload.Sweep.branch_sweep ~config ?pool ~lanes ~taken_fracs:points
        ~length ~seed ()
  in
  let text =
    render (fun fmt ->
        Format.fprintf fmt "%a" Workload.Stats.pp_table (List.map snd rows))
  in
  Response.Sweep_rows { rows; text }

(* The verdict-cache key: the request kind and its parameters, the
   machine shape and the resolved program.  Campaigns are not cached —
   their timed_out classification depends on wall-clock budgets, so a
   replay is not guaranteed bit-identical. *)
let cache_key (req : Request.t) prog =
  let key params =
    Some
      (Cache.key ~kind:(Request.kind_name req) ~params
         ~shape:(shape_key req.Request.spec) ~instructions:prog.instructions
         ~program:prog.words ~data:prog.data)
  in
  match req.Request.kind with
  | Request.Transform { verilog } -> key [ Printf.sprintf "verilog=%b" verilog ]
  | Request.Verify | Request.Proof | Request.Stats -> key []
  | Request.Campaign _ -> None
  | Request.Sweep { axis; points; length; seed; lanes = _ } ->
    (* [lanes] is an execution strategy, not a semantic parameter: the
       rows are bit-identical either way, so both modes share the
       cached verdict. *)
    key
      [
        (match axis with
        | Request.Dependency -> "axis=dependency"
        | Request.Branch -> "axis=branch");
        "points="
        ^ String.concat "," (List.map (Printf.sprintf "%h") points);
        Printf.sprintf "length=%d" length;
        Printf.sprintf "seed=%d" seed;
      ]

(* A request with its program resolved and its verdict key derived,
   once: serve coalesces a batch on [p_key] and evaluates the same
   value.  A program that does not resolve keeps its exception, which
   [handle_prepared] raises on its own path, so the request answers its
   own error; it has no key and keeps its own evaluation. *)
type prepared = {
  p_req : Request.t;
  p_prog : (program, exn) result;
  p_key : string option;
}

let prepare (req : Request.t) =
  Obs.Span.with_span "handler.prepare" @@ fun () ->
  match resolve req.Request.spec with
  | prog -> { p_req = req; p_prog = Ok prog; p_key = cache_key req prog }
  | exception e -> { p_req = req; p_prog = Error e; p_key = None }

let request p = p.p_req
let verdict_key p = p.p_key

let handle_prepared ?env ?pool ?cancel ?(cache_only = false) ?checkpoint
    ?resume p =
  Obs.Counters.bump Obs.Counters.Serve_requests;
  let req = p.p_req in
  let id = req.Request.id in
  let respond ?cached payload = Response.ok ?id ?cached payload in
  try
    (* Look up, and build the machine only on a miss: a hit costs one
       table probe. *)
    let prog = match p.p_prog with Ok prog -> prog | Error e -> raise e in
    let cache_key =
      match env with
      | Some env -> Option.map (fun k -> (env.env_verdicts, k)) p.p_key
      | None -> None
    in
    match Option.bind cache_key (fun (cache, k) -> Cache.find cache k) with
    | Some payload -> respond ~cached:true payload
    | None when cache_only ->
      (* Degraded mode: only cached answers are served; fresh
         evaluation is refused so the queue can drain. *)
      Response.fail ?id Response.Overloaded
        "server is in cache-only degraded mode and this verdict is not cached"
    | None ->
      let select () = selection ?env req.Request.spec prog in
      let payload =
        match req.Request.kind with
        | Request.Transform { verilog } -> eval_transform ~verilog (select ())
        | Request.Verify -> eval_verify ?pool ?cancel (select ())
        | Request.Proof -> eval_proof ?pool ?cancel (select ())
        | Request.Stats -> eval_stats (select ())
        | Request.Campaign { seed; mutants; transients; hang; timeout_s; bmc }
          ->
          eval_campaign ?pool ?checkpoint ?resume
            ~machine:req.Request.spec.Request.machine ~seed ~mutants
            ~transients ~hang ~timeout_s ~bmc (select ())
        | Request.Sweep { axis; points; length; seed; lanes } ->
          (* A sweep generates its own programs: it reads the spec's
             variant and options, never the selection. *)
          eval_sweep ?pool ~spec:req.Request.spec ~axis ~points ~length ~seed
            ~lanes ()
      in
      Option.iter (fun (cache, k) -> Cache.add cache k payload) cache_key;
      respond payload
  with
  | Invalid_request msg -> Response.fail ?id Response.Usage msg
  | Check_failed msg -> Response.fail ?id Response.Failed_check msg
  | Exec.Cancel.Cancelled -> (
    (* The token's latched reason decides the response class; a
       deadline trip is a timeout, an explicit trip (shutdown, client
       abandonment) is a cancellation.  No token in scope can only
       mean some descendant deadline fired — a timeout. *)
    let elapsed =
      match cancel with
      | Some c -> Printf.sprintf " after %.2fs" (Exec.Cancel.elapsed_s c)
      | None -> ""
    in
    match Option.bind cancel Exec.Cancel.reason with
    | Some Exec.Cancel.Explicit ->
      Response.fail ?id Response.Cancelled ("request cancelled" ^ elapsed)
    | Some Exec.Cancel.Deadline | None ->
      Response.fail ?id Response.Timeout ("request timed out" ^ elapsed))
  | Pipeline.Transform.Transform_error msg ->
    Response.fail ?id ~phase:"transform" Response.Internal msg
  | Hw.Expr.Ill_typed msg ->
    Response.fail ?id ~phase:"expr" Response.Internal msg
  | Sys_error msg | Failure msg -> Response.fail ?id Response.Internal msg

let handle ?env ?pool ?cancel ?cache_only ?checkpoint ?resume req =
  handle_prepared ?env ?pool ?cancel ?cache_only ?checkpoint ?resume
    (prepare req)

(* Warm-start the verdict cache from a journaled (request, payload)
   pair: install the payload under the key the ordinary path would
   use.  Campaigns are never cached, a request that reads an assembly
   file is skipped (the file may have been rewritten since its payload
   was journaled, and the old answer would land under the new
   program's key), and any failure to resolve the program (the kernel
   disappeared) just skips the warm — replay correctness does not
   depend on it, only cache hit rates do. *)
let warm ~env (req : Request.t) payload =
  if req.Request.spec.Request.program_file = None then
    Option.iter
      (fun k -> Cache.add env.env_verdicts k payload)
      (prepare req).p_key
