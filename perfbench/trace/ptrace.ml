(* Traced replay of benchmark operations.

     ptrace op REQUEST        one one-shot request or sweep job, at -j 1
     ptrace serve SCHEDULE    an in-process serve replay, 2-domain pool

   REQUEST is one serve-protocol line.  SCHEDULE has one
   "DUE<TAB>REQUEST" line per request, DUE in seconds from the start of
   the replay; a negative DUE marks a set-up request, answered before
   timing starts.

   Each call into a layer's public API runs inside a span (name, start,
   end, parent span, request id), in the order Service.Handler.handle
   and Workload.Sweep make those calls.  Each span also records the
   minor-heap words its domain allocated; WORK and SCHED counter deltas
   are taken around each operation (serve: each batch).  Spans stay in
   memory and are printed when the run ends: one JSON object, the last
   line of stdout, after the serve responses if any. *)

module J = Obs.Json
module R = Service.Request

let now () = Unix.gettimeofday ()
let origin = now ()

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_id : int;
  f_t0 : float;
  f_w0 : float;
  mutable f_child_s : float;
  mutable f_child_w : float;
}

type acc = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_w : float;
}

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32
let stack : frame list ref = ref []
let spans : J.t list ref = ref []
let next_id = ref 0
let rid = ref ""

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; self_s = 0.; self_w = 0. } in
    Hashtbl.add accs name a;
    a

(* Self time and self allocation: the span's own interval minus what
   its child spans cover. *)
let span name f =
  incr next_id;
  let parent = match !stack with p :: _ -> p.f_id | [] -> 0 in
  let fr =
    { f_id = !next_id; f_t0 = now (); f_w0 = Gc.minor_words ();
      f_child_s = 0.; f_child_w = 0. }
  in
  let id = !rid in
  stack := fr :: !stack;
  let finish () =
    let t1 = now () and w1 = Gc.minor_words () in
    stack := List.tl !stack;
    let dur = t1 -. fr.f_t0 and words = w1 -. fr.f_w0 in
    (match !stack with
    | p :: _ ->
      p.f_child_s <- p.f_child_s +. dur;
      p.f_child_w <- p.f_child_w +. words
    | [] -> ());
    let a = acc name in
    a.calls <- a.calls + 1;
    a.self_s <- a.self_s +. dur -. fr.f_child_s;
    a.self_w <- a.self_w +. words -. fr.f_child_w;
    spans :=
      J.List
        [ J.String name; J.String id; J.Int fr.f_id; J.Int parent;
          J.Float ((fr.f_t0 -. origin) *. 1e6);
          J.Float ((t1 -. origin) *. 1e6) ]
      :: !spans
  in
  Fun.protect ~finally:finish f

(* Plain counts (plan size, sweep points, mutants, ...). *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

(* WORK/SCHED counter deltas, summed over operations. *)
let counter_deltas : (string, int) Hashtbl.t = Hashtbl.create 32

let with_counters f =
  let before = Obs.Counters.snapshot () in
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, v) ->
          let v0 = Option.value ~default:0 (List.assoc_opt k before) in
          Hashtbl.replace counter_deltas k
            (v - v0
            + Option.value ~default:0 (Hashtbl.find_opt counter_deltas k)))
        (Obs.Counters.snapshot ()))

let render f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Machine selection (as Service.Handler.select, without an env)      *)
(* ------------------------------------------------------------------ *)

type sel = {
  tr : Pipeline.Transform.t;
  reference : Machine.Seqsem.trace option;
  disasm : (int -> string option) option;
  instructions : int;
}

let kernels =
  List.map
    (fun (p : Dlx.Progs.t) -> (p.Dlx.Progs.prog_name, p))
    (Dlx.Progs.all_kernels @ [ Dlx.Progs.overflow_trap ])

let find_kernel name =
  match List.assoc_opt name kernels with
  | Some p -> p
  | None -> (
    match
      List.filter (fun (n, _) -> String.starts_with ~prefix:name n) kernels
    with
    | [ (_, p) ] -> p
    | _ -> failwith ("unknown kernel " ^ name))

let options_of (spec : R.spec) =
  {
    Pipeline.Fwd_spec.mode =
      (if spec.R.interlock_only then Pipeline.Fwd_spec.Interlock_only
       else Pipeline.Fwd_spec.Full);
    impl = spec.R.impl;
  }

let select (spec : R.spec) =
  let options = options_of spec in
  let dlx variant (p : Dlx.Progs.t) transform =
    let program = Dlx.Progs.program p and n = p.Dlx.Progs.dyn_instructions in
    let reference =
      span "dlx.ref_trace" (fun () ->
          Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data variant ~program
            ~instructions:n)
    in
    let tr = span "pipeline.transform" (fun () -> transform program) in
    { tr; reference = Some reference;
      disasm = Some (Dlx.Seq_dlx.disasm ~reference ~program);
      instructions = n }
  in
  let program_of () =
    match spec.R.kernel with
    | None -> Dlx.Progs.fib 10
    | Some k -> find_kernel k
  in
  match spec.R.machine with
  | Service.Machine_spec.Toy3 ->
    let tr =
      span "pipeline.transform" (fun () ->
          Core.Toy.transform ~options ~program:Core.Toy.default_program ())
    in
    { tr; reference = None; disasm = None;
      instructions = List.length Core.Toy.default_program }
  | Service.Machine_spec.Dlx6 ->
    let p = program_of () in
    let base = Dlx.Seq_dlx.Base in
    dlx base p (fun program ->
        Pipeline.Transform.run ~options ~hints:(Dlx.Seq_dlx.hints base)
          (Machine.Retime.insert_passthrough
             (Dlx.Seq_dlx.machine ~data:p.Dlx.Progs.data base ~program)
             ~at:3))
  | ( Service.Machine_spec.Dlx5 | Service.Machine_spec.Dlx5_intr
    | Service.Machine_spec.Dlx5_bp ) as m ->
    let variant = Option.get (Service.Machine_spec.variant m) in
    let p = program_of () in
    dlx variant p (fun program ->
        Dlx.Seq_dlx.transform ~options ~data:p.Dlx.Progs.data variant
          ~program)

let compile tr =
  let c = span "pipeline.compile" (fun () -> Pipeline.Pipesem.compile tr) in
  count "hw.plan_instrs"
    (float_of_int (Hw.Plan.n_instrs (Pipeline.Pipesem.plan c)));
  c

(* ------------------------------------------------------------------ *)
(* Request kinds (as Service.Handler's eval_* functions)              *)
(* ------------------------------------------------------------------ *)

let verification s =
  let compiled = compile s.tr in
  let max_instructions = s.instructions in
  let consistency =
    span "proof_engine.consistency" (fun () ->
        Proof_engine.Consistency.check ?reference:s.reference
          ~max_instructions ~compiled s.tr)
  in
  let obligations =
    span "proof_engine.obligations" (fun () ->
        Proof_engine.Obligation.discharge_all ?reference:s.reference
          ~max_instructions ~compiled ?disasm:s.disasm s.tr)
  in
  let liveness =
    span "proof_engine.liveness" (fun () ->
        Proof_engine.Liveness.check ~compiled
          ~stop_after:consistency.Proof_engine.Consistency.instructions s.tr)
  in
  { Core.consistency; liveness; obligations }

let verify s =
  let v = verification s in
  let cov =
    span "pipeline.coverage" (fun () ->
        Pipeline.Coverage.measure ~stop_after:s.instructions s.tr)
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
        Format.fprintf fmt
          (if verified then "VERIFIED@." else "VERIFICATION FAILED@."))
  in
  (text, if verified then 0 else 3)

let proof s =
  let v = verification s in
  (span "proof_engine.pvs" (fun () -> Core.proof_script s.tr v), 0)

let stats s =
  let compiled = compile s.tr in
  let sim =
    Workload.Sim.make ~compiled ?reference:s.reference
      ~instructions:s.instructions s.tr
  in
  let result, summary =
    span "pipeline.attribution" (fun () -> Workload.Sim.attribute sim)
  in
  match result.Pipeline.Pipesem.outcome with
  | Pipeline.Pipesem.Completed ->
    (J.to_string (Obs.Hazard.summary_to_json summary) ^ "\n", 0)
  | Pipeline.Pipesem.Deadlocked | Pipeline.Pipesem.Out_of_cycles ->
    failwith "simulation did not complete"

let transform s ~verilog =
  let summary =
    span "pipeline.report" (fun () ->
        render (fun fmt ->
            Format.fprintf fmt "%a@." Machine.Spec.pp_summary
              s.tr.Pipeline.Transform.base))
  in
  let inventory =
    span "pipeline.report" (fun () ->
        render (fun fmt -> Pipeline.Report.pp_inventory fmt s.tr))
  in
  if verilog then (span "hw.verilog" (fun () -> Core.verilog s.tr), 0)
  else (summary ^ inventory, 0)

let toy_alphabet =
  [ Core.Toy.encode ~dst:1 ~src1:1 ~src2:2;
    Core.Toy.encode ~dst:2 ~src1:1 ~src2:1;
    Core.Toy.encode ~dst:1 ~src1:2 ~src2:2 ]

(* The structural and the behavioural mutants run as two campaigns so
   each gets its own per-mutant time; class counts do not depend on
   the split. *)
let campaign s ~seed ~transients ~hang ~timeout_s ~bmc =
  let all =
    span "fault.enumerate" (fun () ->
        Fault.Mutate.enumerate ~transients ~seed ~hang s.tr)
  in
  let bmc =
    if bmc then
      Some ((fun program -> Core.Toy.transform ~program ()), toy_alphabet, 2)
    else None
  in
  let target =
    span "fault.target" (fun () ->
        Fault.Campaign.make_target ?reference:s.reference
          ~instructions:s.instructions ?disasm:s.disasm ?bmc
          ~bmc_load:(fun program -> Core.Toy.image ~program)
          s.tr)
  in
  let structural, behavioural =
    List.partition (fun m -> m.Fault.Mutate.mut_structural) all
  in
  let run name mutants =
    count (name ^ "_mutants") (float_of_int (List.length mutants));
    span name (fun () -> fst (Fault.Campaign.run ~timeout_s target mutants))
  in
  let outcomes =
    run "fault.structural" structural @ run "fault.behavioural" behavioural
  in
  let summary = Fault.Campaign.summarize outcomes in
  ( J.to_string (Fault.Campaign.to_json outcomes) ^ "\n",
    if Fault.Campaign.ok summary then 0 else 3 )

let rec chunk n l =
  if l = [] then []
  else
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> split (k - 1) (x :: acc) tl
    in
    let pack, rest = split n [] l in
    pack :: chunk n rest

(* A sweep job on the batched path: one transform and compile for the
   shape (from the first point's program), then per point program
   generation, golden trace, image and the consistency check; with
   lanes, one packed check per pack of up to Hw.Lanes.max_lanes
   points and a scalar replay of any lane that is not ok. *)
let sweep (spec : R.spec) ~axis ~points ~length ~seed ~lanes =
  let variant = Option.get (Service.Machine_spec.variant spec.R.machine) in
  let options = options_of spec in
  let gen pt =
    span "workload.gen" (fun () ->
        match (axis : R.sweep_axis) with
        | R.Dependency ->
          Workload.Gen.generate ~seed ~length
            (Workload.Gen.alu_only ~dependency_bias:pt)
        | R.Branch ->
          Workload.Gen.generate ~seed ~length
            (Workload.Gen.branch_heavy ~taken_frac:pt))
  in
  let p0 = gen (List.hd points) in
  let tr =
    span "pipeline.transform" (fun () ->
        Dlx.Seq_dlx.transform ~options ~data:p0.Dlx.Progs.data variant
          ~program:(Dlx.Progs.program p0))
  in
  let shape =
    span "pipeline.compile" (fun () -> Proof_engine.Consistency.shape tr)
  in
  count "hw.plan_instrs"
    (float_of_int
       (Hw.Plan.n_instrs
          (Pipeline.Pipesem.plan (Proof_engine.Consistency.shape_compiled shape))));
  let prep pt =
    let p = gen pt in
    Obs.Counters.bump Obs.Counters.Sweep_points;
    count "workload.sweep_points" 1.;
    let program = Dlx.Progs.program p and n = p.Dlx.Progs.dyn_instructions in
    let reference =
      span "dlx.ref_trace" (fun () ->
          Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data variant ~program
            ~instructions:n)
    in
    let init =
      span "dlx.image" (fun () ->
          Dlx.Seq_dlx.image ~data:p.Dlx.Progs.data ~program ())
    in
    (p, n, reference, init)
  in
  let row (p : Dlx.Progs.t) st =
    Workload.Stats.of_stats ~label:p.Dlx.Progs.prog_name ~n_stages:5 st
  in
  let scalar ((p : Dlx.Progs.t), n, reference, init) =
    let report =
      span "proof_engine.consistency" (fun () ->
          Proof_engine.Consistency.check_batched ~max_instructions:n
            ~reference ~init shape)
    in
    if not (Proof_engine.Consistency.ok report) then
      failwith ("verification failed: " ^ p.Dlx.Progs.prog_name);
    row p report.Proof_engine.Consistency.stats
  in
  let pack pts =
    let progs = List.map prep pts in
    let references = Array.of_list (List.map (fun (_, _, r, _) -> r) progs) in
    let inits = Array.of_list (List.map (fun (_, _, _, i) -> i) progs) in
    let verdicts =
      span "proof_engine.consistency" (fun () ->
          Proof_engine.Consistency.check_lanes ~references ~inits shape)
    in
    List.mapi
      (fun l ((p, _, _, _) as prog) ->
        let v = verdicts.(l) in
        if v.Proof_engine.Consistency.lv_ok then
          row p v.Proof_engine.Consistency.lv_stats
        else Obs.Counters.with_discarded (fun () -> scalar prog))
      progs
  in
  let rows =
    if lanes then List.concat_map pack (chunk Hw.Lanes.max_lanes points)
    else List.map (fun pt -> scalar (prep pt)) points
  in
  (render (fun fmt -> Workload.Stats.pp_table fmt rows), 0)

let evaluate (req : R.t) =
  match req.R.kind with
  | R.Sweep { axis; points; length; seed; lanes } ->
    sweep req.R.spec ~axis ~points ~length ~seed ~lanes
  | kind -> (
    let s = select req.R.spec in
    match kind with
    | R.Transform { verilog } -> transform s ~verilog
    | R.Verify -> verify s
    | R.Proof -> proof s
    | R.Stats -> stats s
    | R.Campaign { seed; mutants = _; transients; hang; timeout_s; bmc } ->
      campaign s ~seed ~transients ~hang ~timeout_s ~bmc
    | R.Sweep _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let summary extra =
  let layers =
    Hashtbl.fold
      (fun k a l ->
        (k, J.List [ J.Int a.calls; J.Float a.self_s; J.Float a.self_w ]) :: l)
      accs []
  in
  let tbl h f = J.Obj (Hashtbl.fold (fun k v l -> (k, f v) :: l) h []) in
  J.to_string ~minify:true
    (J.Obj
       ([ ("layers", J.Obj layers);
          ("counts", tbl counts (fun v -> J.Float v));
          ("counters", tbl counter_deltas (fun v -> J.Int v));
          ("spans", J.List (List.rev !spans)) ]
       @ extra))

let decode line =
  match R.of_string line with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "%a" R.pp_decode_error e)

let op line =
  let req = decode line in
  rid := Option.value req.R.id ~default:"op";
  let t0 = now () in
  let result =
    with_counters (fun () ->
        match span "op" (fun () -> evaluate req) with
        | out -> Ok out
        | exception e -> Error (Printexc.to_string e))
  in
  let wall = now () -. t0 in
  let fields =
    match result with
    | Ok (out, rc) -> [ ("out", J.String out); ("rc", J.Int rc) ]
    | Error msg -> [ ("error", J.String msg) ]
  in
  print_endline (summary (("wall_s", J.Float wall) :: fields))

(* Requests due in the same window form one batch, so batches, verdict
   cache contents and WORK counts do not depend on timing.  A batch is
   admitted when its last request is due (or when the previous batch
   ends, if later). *)
let window_s = 0.05

let serve path =
  let entries =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.index_opt l '\t' with
           | Some i ->
             ( float_of_string (String.sub l 0 i),
               String.sub l (i + 1) (String.length l - i - 1) )
           | None -> failwith ("bad schedule line: " ^ l))
  in
  let warm, timed = List.partition (fun (due, _) -> due < 0.) entries in
  let batches =
    List.fold_left
      (fun acc ((due, _) as e) ->
        let w = int_of_float (due /. window_s) in
        match acc with
        | (w', es) :: rest when w' = w -> (w, e :: es) :: rest
        | _ -> (w, [ e ]) :: acc)
      [] timed
    |> List.rev_map (fun (_, es) -> List.rev es)
  in
  let env = Service.Handler.create_env () in
  Exec.Pool.with_pool ~size:2 (fun pool ->
      ignore (Service.Serve.process_batch ~env ~pool (List.map snd warm));
      Exec.Pool.reset_stats pool;
      let cache = Service.Handler.verdicts env in
      let hits0 = Service.Cache.hits cache
      and misses0 = Service.Cache.misses cache in
      let lag = ref 0. and wait = ref 0. and latency = ref [] in
      let t_start = now () in
      List.iter
        (fun batch ->
          let ready =
            t_start +. List.fold_left (fun m (d, _) -> Float.max m d) 0. batch
          in
          let pause = ready -. now () in
          if pause > 0. then Unix.sleepf pause;
          let tb = now () in
          lag := !lag +. Float.max 0. (tb -. ready);
          let lines = List.map snd batch in
          rid := String.concat "," (List.map (fun l ->
              match R.of_string l with
              | Ok { R.id = Some id; _ } -> id
              | _ -> "?") lines);
          let batch_id = !rid in
          let out =
            with_counters (fun () ->
                span "op" (fun () ->
                    let reqs =
                      List.map
                        (fun l ->
                          span "service.decode" (fun () -> R.of_string l))
                        lines
                    in
                    List.iter
                      (function
                        | Ok (r : R.t) -> (
                          rid := Option.value r.R.id ~default:"?";
                          try
                            ignore
                              (span "service.select" (fun () ->
                                   Service.Handler.select ~env r.R.spec))
                          with _ -> ())
                        | Error _ -> ())
                      reqs;
                    rid := batch_id;
                    let resps =
                      span "service.handle" (fun () ->
                          Service.Serve.process_batch ~env ~pool lines)
                    in
                    List.map
                      (fun (r : Service.Response.t) ->
                        rid := Option.value r.Service.Response.id ~default:"?";
                        span "service.encode" (fun () ->
                            Service.Response.to_string r))
                      resps))
          in
          let te = now () in
          List.iter
            (fun (due, _) ->
              wait := !wait +. (tb -. (t_start +. due));
              latency := (te -. (t_start +. due)) :: !latency)
            batch;
          count "service.batches" 1.;
          count "service.requests" (float_of_int (List.length batch));
          List.iter print_endline out)
        batches;
      let elapsed = now () -. t_start in
      let busy =
        List.fold_left
          (fun s (d : Exec.Pool.domain_stats) -> s +. d.Exec.Pool.busy_s)
          0. (Exec.Pool.stats pool)
      in
      count "service.cache_hits"
        (float_of_int (Service.Cache.hits cache - hits0));
      count "service.cache_misses"
        (float_of_int (Service.Cache.misses cache - misses0));
      count "service.queue_wait_s" !wait;
      count "harness.lag_s" !lag;
      count "exec.busy_s" busy;
      count "exec.capacity_s" (elapsed *. float_of_int (Exec.Pool.size pool));
      print_endline
        (summary
           [ ("wall_s", J.Float elapsed);
             ("latency_s", J.List (List.rev_map (fun x -> J.Float x) !latency))
           ]))

let () =
  match Sys.argv with
  | [| _; "op"; line |] -> op line
  | [| _; "serve"; path |] -> serve path
  | _ ->
    prerr_endline "usage: ptrace op REQUEST | ptrace serve SCHEDULE";
    exit 2
