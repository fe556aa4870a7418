type config = {
  variant : Dlx.Seq_dlx.variant;
  options : Pipeline.Fwd_spec.options;
  ext : Pipeline.Pipesem.ext_model option;
  verify : bool;
}

let default =
  {
    variant = Dlx.Seq_dlx.Base;
    options = Pipeline.Fwd_spec.default_options;
    ext = None;
    verify = true;
  }

exception Verification_failed of string

let memory_wait_states ~every ~wait ~stage ~cycle =
  stage = 3 && cycle mod every < wait

(* A verified point's row, or the failure the sweep stops on. *)
let row_of_report (p : Dlx.Progs.t) report =
  if not (Proof_engine.Consistency.ok report) then
    raise
      (Verification_failed
         (Format.asprintf "%s: %a" p.Dlx.Progs.prog_name
            Proof_engine.Consistency.pp_report report));
  Stats.of_stats ~label:p.Dlx.Progs.prog_name ~n_stages:5
    report.Proof_engine.Consistency.stats

let sim_of_program ?(config = default) (p : Dlx.Progs.t) =
  let program = Dlx.Progs.program p in
  let tr =
    Dlx.Seq_dlx.transform ~options:config.options ~data:p.Dlx.Progs.data
      config.variant ~program
  in
  let n = p.Dlx.Progs.dyn_instructions in
  let reference =
    if config.verify then
      Some
        (Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data config.variant ~program
           ~instructions:n)
    else None
  in
  Sim.make ?reference ~instructions:n tr

let run_program ?(config = default) (p : Dlx.Progs.t) =
  let sim = sim_of_program ~config p in
  if config.verify then row_of_report p (Sim.verify ?ext:config.ext sim)
  else
    Stats.of_stats ~label:p.Dlx.Progs.prog_name ~n_stages:5
      (Sim.run ?ext:config.ext sim).Pipeline.Pipesem.stats

(* The machine shape of a sweep is fixed by the config (variant +
   options): only the program and its data image differ between
   points.  The batched path compiles the shape once — from the first
   point — and drives every point by overriding the IMEM/MEM initial
   values over per-domain cached sessions ({!Pipesem.local_session}),
   so a pool worker binds each plan once for the whole sweep.  Rows
   are bit-identical to the rebuild path ([run_program] per point). *)
let sweep_shape ~config (p0 : Dlx.Progs.t) =
  Proof_engine.Consistency.shape
    (Dlx.Seq_dlx.transform ~options:config.options ~data:p0.Dlx.Progs.data
       config.variant ~program:(Dlx.Progs.program p0))

let run_batched ~config ~shape (p : Dlx.Progs.t) =
  let program = Dlx.Progs.program p in
  let n = p.Dlx.Progs.dyn_instructions in
  let init = Dlx.Seq_dlx.image ~data:p.Dlx.Progs.data ~program () in
  if config.verify then begin
    let reference =
      Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data config.variant ~program
        ~instructions:n
    in
    row_of_report p
      (Proof_engine.Consistency.check_batched ?ext:config.ext
         ~max_instructions:n ~reference ~init shape)
  end
  else
    Stats.of_stats ~label:p.Dlx.Progs.prog_name ~n_stages:5
      (Pipeline.Pipesem.run_session ?ext:config.ext ~init ~stop_after:n
         (Pipeline.Pipesem.local_session
            (Proof_engine.Consistency.shape_compiled shape)))
        .Pipeline.Pipesem.stats

(* Each sweep point generates its own program, so the points share no
   mutable state and fan out over the pool.  The fan-out is {e
   sharded} ({!Exec.Pool.map_sharded}): one contiguous chunk of points
   per pool slot, not one task per point.  Per-point tasks were too
   fine a grain — the dispatch cost (enqueue, wake, join) rivals a
   point's simulation time at smoke sizes, and every task re-entered
   the per-domain session cache.  A shard binds its domain's cached
   session once and runs its points back to back (per-domain session
   affinity).  Shards are concatenated in input order, so the rows
   stay bit-identical to the serial execution whatever the pool
   size. *)
let sweep_span name ?pool points f =
  let j =
    match pool with None -> 1 | Some p -> Exec.Pool.size p
  in
  Obs.Span.with_span name
    ~args:
      [ ("points", string_of_int (List.length points));
        ("j", string_of_int j) ]
  @@ fun () -> Exec.Pool.map_opt_sharded pool f points

(* Lane mode: consecutive points pack into <=62-lane words, one
   verified pack run per pack ({!Consistency.check_lanes}).  Each
   point still generates its own program and golden reference trace;
   only the pipelined verification run is shared, and each lane's
   report is the one the scalar batched path returns, so rows,
   failure messages and WORK counters match it bit for bit. *)
let run_lane_pack ~config ~shape pack =
  let progs =
    List.map
      (fun (pt, (p : Dlx.Progs.t)) ->
        Obs.Counters.bump Obs.Counters.Sweep_points;
        let program = Dlx.Progs.program p in
        let n = p.Dlx.Progs.dyn_instructions in
        let reference =
          Dlx.Seq_dlx.ref_trace ~data:p.Dlx.Progs.data config.variant ~program
            ~instructions:n
        in
        let init = Dlx.Seq_dlx.image ~data:p.Dlx.Progs.data ~program () in
        (pt, p, reference, init))
      pack
  in
  let references =
    Array.of_list (List.map (fun (_, _, r, _) -> r) progs)
  in
  let inits = Array.of_list (List.map (fun (_, _, _, i) -> i) progs) in
  let verdicts =
    Proof_engine.Consistency.check_lanes ?ext:config.ext ~references ~inits
      shape
  in
  List.mapi
    (fun l (pt, (p : Dlx.Progs.t), _, _) ->
      let report = verdicts.(l).Proof_engine.Consistency.lv_report in
      (pt, row_of_report p report))
    progs

let rec chunk n l =
  if l = [] then []
  else begin
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> split (k - 1) (x :: acc) tl
    in
    let pack, rest = split n [] l in
    pack :: chunk n rest
  end

let sweep name ?(config = default) ?pool ?(batched = true) ?(lanes = false)
    ~points ~gen () =
  if not batched then
    sweep_span name ?pool points (fun pt ->
        Obs.Counters.bump Obs.Counters.Sweep_points;
        (pt, run_program ~config (gen pt)))
  else
    match points with
    | [] -> []
    | p0 :: _ ->
      let shape = sweep_shape ~config (gen p0) in
      if lanes && config.verify then
        let packs = chunk Hw.Lanes.max_lanes points in
        List.concat
          (sweep_span name ?pool packs (fun pack ->
               run_lane_pack ~config ~shape
                 (List.map (fun pt -> (pt, gen pt)) pack)))
      else
        sweep_span name ?pool points (fun pt ->
            Obs.Counters.bump Obs.Counters.Sweep_points;
            (pt, run_batched ~config ~shape (gen pt)))

let dependency_sweep ?config ?pool ?batched ?lanes ~biases ~length ~seed () =
  sweep "sweep.dependency" ?config ?pool ?batched ?lanes ~points:biases
    ~gen:(fun bias ->
      Gen.generate ~seed ~length (Gen.alu_only ~dependency_bias:bias))
    ()

let branch_sweep ?config ?pool ?batched ?lanes ~taken_fracs ~length ~seed () =
  sweep "sweep.branch" ?config ?pool ?batched ?lanes ~points:taken_fracs
    ~gen:(fun tf ->
      Gen.generate ~seed ~length (Gen.branch_heavy ~taken_frac:tf))
    ()
