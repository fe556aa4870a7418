module Spec = Machine.Spec
module Pipesem = Pipeline.Pipesem

type violation = {
  at_cycle : int;
  at_stage : int;
  tag : int;
  register : string;
  expected : string;
  got : string;
}

type lemma1_status =
  | Lemma_ok
  | Lemma_skipped_rollback
  | Lemma_failed of Pipeline.Evidence.t

type report = {
  instructions : int;
  edge_checks : int;
  violations : violation list;
  lemma1 : lemma1_status;
  outcome : Pipesem.outcome;
  stats : Pipesem.stats;
  final_visible_match : bool option;
  trace : Pipesem.cycle_record list;
  liveness : Liveness.report;
}

let ok r =
  r.violations = []
  && r.outcome = Pipesem.Completed
  && (match r.lemma1 with
     | Lemma_ok | Lemma_skipped_rollback -> true
     | Lemma_failed _ -> false)
  &&
  match r.final_visible_match with None | Some true -> true | Some false -> false

let value_at snapshot name = List.assoc_opt name snapshot

(* A register matches its reference value either by provenance — the
   reference still shares the image the register was filled from and
   no write has touched the register since ({!Machine.State.holds_image}),
   the common case for a data memory no store has reached yet — or by
   comparing entries. *)
let matches state name expected got =
  Machine.State.holds_image state name expected
  || Machine.Value.equal expected got

(* The co-simulation core, generic over how the pipelined run is
   produced: [check] gives it a fresh per-call run, [check_batched] a
   per-domain session replay. *)
let check_core ~seq_trace ~run_pipe (t : Pipeline.Transform.t) =
  let base = t.Pipeline.Transform.base in
  let n = base.Spec.n_stages in
  let instructions = seq_trace.Machine.Seqsem.instructions in
  let spec = seq_trace.Machine.Seqsem.spec_before in
  let visible_of_stage =
    Array.init n (fun k ->
        List.filter (fun (r : Spec.register) -> r.Spec.stage = k)
          (Spec.visible_registers base))
  in
  (* Violations are buffered per instruction tag: writes by an
     instruction that is later squashed by a rollback are speculative
     and corrected by the rollback writes (paper §5 — "the guessed
     value has no influence on the correctness"), so its pending
     comparisons are cancelled when the squash happens. *)
  let violations = ref [] in
  let edge_checks = ref 0 in
  let gaps = Liveness.gaps () in
  let records = ref [] in
  let compare_reg ~cycle ~stage ~tag snapshot (r : Spec.register) state =
    incr edge_checks;
    let got = Machine.State.get state r.Spec.reg_name in
    match value_at snapshot r.Spec.reg_name with
    | None -> ()
    | Some expected ->
      if not (matches state r.Spec.reg_name expected got) then
        violations :=
          {
            at_cycle = cycle;
            at_stage = stage;
            tag;
            register = r.Spec.reg_name;
            expected = Format.asprintf "%a" Machine.Value.pp expected;
            got = Format.asprintf "%a" Machine.Value.pp got;
          }
          :: !violations
  in
  let on_edge (rec_ : Pipesem.cycle_record) state =
    for k = 0 to n - 1 do
      if rec_.Pipesem.ue.(k) then
        match rec_.Pipesem.tags.(k) with
        | Some i when i + 1 <= instructions ->
          List.iter
            (fun r ->
              compare_reg ~cycle:rec_.Pipesem.cycle ~stage:k ~tag:i spec.(i + 1)
                r state)
            visible_of_stage.(k)
        | Some _ | None -> ()
    done
  in
  let on_retire ~tag ~kind state =
    Liveness.on_retire gaps;
    match kind with
    | Pipesem.Normal -> ()
    | Pipesem.Via_rollback _ when tag + 1 <= instructions ->
      (* The rollback writes realize the instruction's sequential
         semantics; compare the full visible state. *)
      List.iter
        (fun (r : Spec.register) ->
          compare_reg ~cycle:(-1) ~stage:(-1) ~tag spec.(tag + 1) r state)
        (Spec.visible_registers base)
    | Pipesem.Via_rollback _ -> ()
  in
  let on_cycle (r : Pipesem.cycle_record) =
    records := r :: !records;
    Liveness.on_cycle gaps r;
    (* A rollback at stage k squashes the instructions in stages 0..k;
       cancel their buffered speculative-write comparisons.  The
       retiring instruction itself (if the speculation retires) is
       re-checked against the full visible state in [on_retire]. *)
    let deepest =
      let rec find k =
        if k < 0 then None
        else if r.Pipesem.rollback.(k) then Some k
        else find (k - 1)
      in
      find (n - 1)
    in
    match deepest with
    | None -> ()
    | Some k -> (
      match r.Pipesem.tags.(k) with
      | None -> ()
      | Some base ->
        violations := List.filter (fun v -> v.tag < base) !violations)
  in
  let callbacks =
    { Pipesem.no_callbacks with Pipesem.on_cycle; on_edge; on_retire }
  in
  let result = run_pipe ~callbacks ~stop_after:instructions in
  let trace = List.rev !records in
  let lemma1 =
    if Pipeline.Schedule.has_rollback trace then Lemma_skipped_rollback
    else
      match Pipeline.Schedule.check_lemma1 ~n_stages:n trace with
      | Ok () -> Lemma_ok
      | Error es -> Lemma_failed es
  in
  let final_visible_match =
    if
      Pipeline.Schedule.has_rollback trace
      || result.Pipesem.outcome <> Pipesem.Completed
    then None
    else begin
      (* Registers of the last stage see no over-fetch interference. *)
      let final_spec = spec.(instructions) in
      let last_stage_regs = visible_of_stage.(n - 1) in
      let all_match =
        List.for_all
          (fun (r : Spec.register) ->
            match value_at final_spec r.Spec.reg_name with
            | None -> true
            | Some expected ->
              let state = result.Pipesem.state in
              matches state r.Spec.reg_name expected
                (Machine.State.get state r.Spec.reg_name))
          last_stage_regs
      in
      Some all_match
    end
  in
  {
    instructions;
    edge_checks = !edge_checks;
    violations = List.rev !violations;
    lemma1;
    outcome = result.Pipesem.outcome;
    stats = result.Pipesem.stats;
    final_visible_match;
    trace;
    liveness = Liveness.of_run ~n_stages:n gaps result;
  }

let check ?ext ?(max_instructions = 200) ?reference ?compiled ?inject
    ?cancel (t : Pipeline.Transform.t) =
  Obs.Span.with_span "verify.consistency" @@ fun () ->
  let seq_trace =
    match reference with
    | Some trace -> trace
    | None -> Machine.Seqsem.run ~max_instructions t.Pipeline.Transform.base
  in
  let run_pipe ~callbacks ~stop_after =
    let c =
      match compiled with Some c -> c | None -> Pipesem.compile t
    in
    Pipesem.run_compiled ?ext ~callbacks ?inject ?cancel ~stop_after c
  in
  check_core ~seq_trace ~run_pipe t

(* A machine shape ready for batched checking: the transform plus both
   compiled machines, all immutable and freely shared across domains.
   Per-program mutable state lives in per-domain sessions created on
   demand ({!Pipesem.local_session} / {!Machine.Seqsem.local_session}),
   so a pool worker binds each plan exactly once. *)
type shape = {
  sh_tr : Pipeline.Transform.t;
  sh_pipe : Pipesem.compiled;
  sh_seq : Machine.Seqsem.compiled;
  mutable sh_digest : string option;
      (* memoized {!Pipeline.Transform.digest} of [sh_tr]: lets the
         lane-env cache recognise a freshly built but structurally
         identical shape and reuse its warmed sessions *)
}

let shape (t : Pipeline.Transform.t) =
  {
    sh_tr = t;
    sh_pipe = Pipesem.compile t;
    sh_seq = Machine.Seqsem.compile t.Pipeline.Transform.base;
    sh_digest = None;
  }

(* A transform compiles to one tape, so its digest identifies the
   compiled shape too. *)
let shape_digest s =
  match s.sh_digest with
  | Some d -> d
  | None ->
    let d = Pipeline.Transform.digest s.sh_tr in
    s.sh_digest <- Some d;
    d

let shape_transform s = s.sh_tr
let shape_compiled s = s.sh_pipe

let check_batched ?ext ?(max_instructions = 200) ?reference ?inject ?cancel
    ?init (s : shape) =
  Obs.Span.with_span "verify.consistency" @@ fun () ->
  let seq_trace =
    match reference with
    | Some trace -> trace
    | None ->
      fst
        (Machine.Seqsem.run_session ?init ~max_instructions
           (Machine.Seqsem.local_session s.sh_seq))
  in
  let run_pipe ~callbacks ~stop_after =
    Pipesem.run_session ?ext ~callbacks ?inject ?cancel ?init ~stop_after
      (Pipesem.local_session s.sh_pipe)
  in
  check_core ~seq_trace ~run_pipe s.sh_tr

type failure = {
  failing_phase : string;
  message : string;
}

(* The hardened entry point: any exception the co-simulation raises —
   a plan width violation from a structurally mutated machine, an
   unknown-register access from a corrupted address, an interpreter
   Eval_error — becomes a typed [Error] instead of aborting the
   caller's batch.  Cancellation is not a failure of the machine under
   test and keeps propagating. *)
let failure_of_exn e =
  let failing_phase, message =
    match e with
    | Hw.Plan.Compile_error m -> ("plan compilation", m)
    | Hw.Plan.Run_error m -> ("plan evaluation", m)
    | Hw.Eval.Eval_error m -> ("expression evaluation", m)
    | Hw.Expr.Ill_typed m -> ("expression typing", m)
    | Invalid_argument m -> ("state access", m)
    | e -> ("co-simulation", Printexc.to_string e)
  in
  { failing_phase; message }

let check_result ?ext ?max_instructions ?reference ?compiled ?inject ?cancel
    t =
  match check ?ext ?max_instructions ?reference ?compiled ?inject ?cancel t with
  | report -> Ok report
  | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
  | exception e -> Error (failure_of_exn e)

let check_batched_result ?ext ?max_instructions ?reference ?inject ?cancel
    ?init s =
  match check_batched ?ext ?max_instructions ?reference ?inject ?cancel ?init s
  with
  | report -> Ok report
  | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
  | exception e -> Error (failure_of_exn e)

let pp_report ppf r =
  Format.fprintf ppf
    "data consistency: %d instructions, %d retirements, %d register \
     comparisons, %d violations; lemma 1: %s; outcome: %s@."
    r.instructions r.liveness.Liveness.checked r.edge_checks
    (List.length r.violations)
    (match r.lemma1 with
    | Lemma_ok -> "ok"
    | Lemma_skipped_rollback -> "skipped (rollbacks)"
    | Lemma_failed e -> Printf.sprintf "%d violations" e.Pipeline.Evidence.total)
    (match r.outcome with
    | Pipesem.Completed -> "completed"
    | Pipesem.Deadlocked -> "DEADLOCK"
    | Pipesem.Out_of_cycles -> "out of cycles");
  List.iteri
    (fun i v ->
      if i < 10 then
        Format.fprintf ppf
          "  violation: cycle %d stage %d instr %d register %s: expected %s, \
           got %s@."
          v.at_cycle v.at_stage v.tag v.register v.expected v.got)
    r.violations

(* ------------------------------------------------------------------ *)
(* Lane-parallel checking: co-simulate up to 62 programs in one
   bit-parallel pipelined run against one bit-parallel sequential
   reference run.  Per lane, every decision the scalar checker makes
   is made here in the same order — buffered per-tag violations with
   rollback cancellation, the incremental scheduling-function lemma,
   the final visible-state comparison — so [lv_ok] matches the scalar
   [ok report] for the same program bit for bit.

   Work counters are staged in a ledger and flushed only if the whole
   pack succeeds; any exception discards the ledger and re-checks each
   lane through the scalar batched path (counters live), which keeps
   WORK totals and verdicts identical to a scalar sweep by
   construction. *)
(* ------------------------------------------------------------------ *)

module State = Machine.State

type lane_verdict = {
  lv_ok : bool;
  lv_outcome : Pipesem.outcome;
  lv_stats : Pipesem.stats;
  lv_divergence : int;
      (** first cycle the lane's control bits split from the pack's
          majority; -1 = never (see {!Pipeline.Pipesem.lane_result}) *)
}

(* Cell lists carry each register's position in the name-sorted
   visible order — the index of its value in a lane snapshot
   ([State.snapshot_visible_lanes] sorts the same way), so the
   per-cycle comparison can index the reference trace instead of
   walking an association list per lane. *)
type lane_env = {
  le_pipe : Pipesem.lane_session;
  le_seq : Machine.Seqsem.lanes_session;
  le_stage_cells : (Spec.register * int * State.lane_cell) list array;
  le_all_cells : (Spec.register * int * State.lane_cell) list;
  le_visible_names : string array;  (* name-sorted visible registers *)
}

let lane_env (s : shape) =
  let base = s.sh_tr.Pipeline.Transform.base in
  let n = base.Spec.n_stages in
  let pipe = Pipesem.lanes_session s.sh_pipe in
  let seq = Machine.Seqsem.lanes_session s.sh_seq in
  let st = Pipesem.lanes_state pipe in
  let visible = Spec.visible_registers base in
  let sorted_names =
    List.sort String.compare
      (List.map (fun (r : Spec.register) -> r.Spec.reg_name) visible)
  in
  let index name =
    let rec go i = function
      | [] -> invalid_arg "Consistency.lane_env: register not visible"
      | n :: tl -> if n = name then i else go (i + 1) tl
    in
    go 0 sorted_names
  in
  let cells regs =
    List.map
      (fun (r : Spec.register) ->
        (r, index r.Spec.reg_name, State.lanes_cell st r.Spec.reg_name))
      regs
  in
  {
    le_pipe = pipe;
    le_seq = seq;
    le_stage_cells =
      Array.init n (fun k ->
          cells (List.filter (fun (r : Spec.register) -> r.Spec.stage = k) visible));
    le_all_cells = cells visible;
    le_visible_names = Array.of_list sorted_names;
  }

(* Per-domain env cache, keyed by the shape's structural digest plus
   the pack's lane count.  Digest keying (not physical equality) lets a
   caller that rebuilds the same transform per query — the bench loop,
   a service handler — land back on warmed sessions instead of binding
   plans anew.  Keying by lane count as well gives every pack width its
   own sessions, so each session sees a constant [act] and its
   cross-run snapshot seed ({!Machine.Seqsem.lanes_session}) stays
   valid instead of being invalidated by alternating pack sizes (an
   exhaustive sweep ends with a partial pack every call). *)
let local_lane_envs : ((string * int) * lane_env) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let local_lane_env s ~act =
  let cache = Domain.DLS.get local_lane_envs in
  let key = (shape_digest s, act) in
  let rec find = function
    | [] -> None
    | (k, e) :: tl -> if k = key then Some e else find tl
  in
  match find !cache with
  | Some e -> e
  | None ->
    let e = lane_env s in
    let rec take n = function
      | [] -> []
      | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl
    in
    cache := take 8 ((key, e) :: !cache);
    e

(* Does the pipelined pack's cell match the reference value for one
   lane?  Width equality is a binding invariant; values are compared
   raw. *)
let soa_matches (cell : State.lane_cell) lane (expected : State.lane_value) =
  match (cell.State.lc_value, expected) with
  | State.Lbool got, State.Lbool exp ->
    Hw.Lanes.test got.State.word lane = Hw.Lanes.test exp.State.word lane
  | State.Lints got, State.Lints exp -> got.(lane) = exp.(lane)
  | State.Lfile got, State.Lfile exp ->
    let g = got.(lane) and e = exp.(lane) in
    Array.length g = Array.length e
    &&
    (let ok = ref true in
     for j = 0 to Array.length g - 1 do
       if g.(j) <> e.(j) then ok := false
     done;
     !ok)
  | _ -> false

(* The lane twin of [matches]: a file lane still holding the very
   image array [expected] is ([lc_srcs]) matches without a scan. *)
let boxed_matches (cell : State.lane_cell) lane (expected : Machine.Value.t) =
  match (cell.State.lc_value, expected) with
  | State.Lfile _, Machine.Value.File arr
    when (match cell.State.lc_srcs.(lane) with
         | Some src -> src == arr
         | None -> false) ->
    true
  | State.Lbool got, Machine.Value.Scalar bv ->
    Hw.Lanes.test got.State.word lane = (Hw.Bitvec.to_int bv <> 0)
  | State.Lints got, Machine.Value.Scalar bv ->
    got.(lane) = Hw.Bitvec.to_int bv
  | State.Lfile got, Machine.Value.File arr ->
    let g = got.(lane) in
    Array.length g = Array.length arr
    &&
    (let ok = ref true in
     for j = 0 to Array.length g - 1 do
       if g.(j) <> Hw.Bitvec.to_int arr.(j) then ok := false
     done;
     !ok)
  | _ -> false

let check_lanes ?ext ?cancel ?(faulty = false) ?(max_instructions = 200)
    ?references ~inits (s : shape) =
  Obs.Span.with_span "verify.consistency_lanes" @@ fun () ->
  let act = Array.length inits in
  if act = 0 then invalid_arg "Consistency.check_lanes: empty pack";
  let base = s.sh_tr.Pipeline.Transform.base in
  let n = base.Spec.n_stages in
  let ledger = Obs.Counters.ledger () in
  match
    let env = local_lane_env s ~act in
    (* The reference: one SoA sequential run for uniform packs (BMC),
       or caller-supplied per-lane scalar traces (sweeps). *)
    let instr_of, expected_matches, stop_afters =
      match references with
      | Some (refs : Machine.Seqsem.trace array) ->
        if Array.length refs <> act then
          invalid_arg "Consistency.check_lanes: references/inits length mismatch";
        ( (fun l -> refs.(l).Machine.Seqsem.instructions),
          (fun ~lane ~snap _idx name cell ->
            match
              List.assoc_opt name
                refs.(lane).Machine.Seqsem.spec_before.(snap)
            with
            | None -> true
            | Some v -> boxed_matches cell lane v),
          Array.map
            (fun (r : Machine.Seqsem.trace) -> r.Machine.Seqsem.instructions)
            refs )
      | None ->
        let lt =
          Machine.Seqsem.run_lanes_session ~ledger ~inits ~max_instructions
            env.le_seq
        in
        (* Snapshot alists are name-sorted over exactly the visible
           registers, so the cell's precomputed index addresses its
           value directly — no per-lane list walk. *)
        let tbl =
          Array.map
            (fun snap -> Array.of_list (List.map snd snap))
            lt.Machine.Seqsem.lt_before
        in
        (* Provenance fast path for visible register files: if the
           reference lane's row was reset from image array [src] and
           never written during the whole run ([lc_srcs] still holds
           [src] now that the run is over), then every snapshot of that
           lane's row equals [src]'s contents; if the pipelined lane's
           live row carries the same physical [src] at compare time,
           the rows are equal without scanning them.  This is what
           keeps a 4k-entry data memory out of the per-retire compare
           when no store ever touches it. *)
        let seq_st = Machine.Seqsem.lanes_state env.le_seq in
        let seq_srcs =
          Array.map
            (fun name ->
              let cell = State.lanes_cell seq_st name in
              if Array.length cell.State.lc_srcs = 0 then [||]
              else Array.copy cell.State.lc_srcs)
            env.le_visible_names
        in
        ( (fun _ -> lt.Machine.Seqsem.lt_instructions),
          (fun ~lane ~snap idx _name cell ->
            let ss = seq_srcs.(idx) in
            (Array.length ss > 0
            &&
            match (ss.(lane), cell.State.lc_srcs.(lane)) with
            | Some s_seq, Some s_pipe -> s_seq == s_pipe
            | _ -> false)
            || soa_matches cell lane tbl.(snap).(idx)),
          Array.make act lt.Machine.Seqsem.lt_instructions )
    in
    (* Per-lane co-simulation state. *)
    let violations = Array.make act [] in
    let rolled_back = Array.make act false in
    let lemma_fail = Array.make act false in
    let itab = Array.make_matrix act n 0 in
    let lob_pre_edge ~cycle:_ (sg : Pipeline.Stall_engine.lane_signals) ~tags
        ~running =
      for l = 0 to act - 1 do
        if Hw.Lanes.test running l then begin
          (* rollback: remember it, and cancel the squashed
             instructions' buffered speculative-write comparisons *)
          let deepest = ref (-1) in
          for k = 0 to n - 1 do
            if Hw.Lanes.test sg.Pipeline.Stall_engine.l_rollback.(k) l then
              deepest := k
          done;
          if !deepest >= 0 then begin
            rolled_back.(l) <- true;
            let b = tags.(!deepest).(l) in
            if b >= 0 then
              violations.(l) <- List.filter (fun tag -> tag < b) violations.(l)
          end;
          (* incremental scheduling-function lemma (skipped for lanes
             that ever roll back, like the scalar checker) *)
          if not rolled_back.(l) then begin
            let it = itab.(l) in
            for k = 1 to n - 1 do
              let d = it.(k - 1) - it.(k) in
              if d <> 0 && d <> 1 then lemma_fail.(l) <- true;
              let empty =
                not (Hw.Lanes.test sg.Pipeline.Stall_engine.l_full.(k) l)
              in
              if empty <> (d = 0) then lemma_fail.(l) <- true
            done;
            for k = 0 to n - 1 do
              let tag = tags.(k).(l) in
              if
                tag >= 0
                && Hw.Lanes.test sg.Pipeline.Stall_engine.l_full.(k) l
                && tag <> it.(k)
              then lemma_fail.(l) <- true
            done;
            for k = n - 1 downto 1 do
              if Hw.Lanes.test sg.Pipeline.Stall_engine.l_ue.(k) l then begin
                if it.(k - 1) <> it.(k) + 1 then lemma_fail.(l) <- true;
                it.(k) <- it.(k - 1)
              end
            done;
            if Hw.Lanes.test sg.Pipeline.Stall_engine.l_ue.(0) l then
              it.(0) <- it.(0) + 1
          end
        end
      done
    in
    let lob_post_edge ~cycle:_ (sg : Pipeline.Stall_engine.lane_signals) ~tags
        ~running =
      for k = 0 to n - 1 do
        let ue = sg.Pipeline.Stall_engine.l_ue.(k) land running in
        if ue <> 0 then
          Hw.Lanes.iter ~mask:ue (fun l ->
              let i = tags.(k).(l) in
              if i >= 0 && i + 1 <= instr_of l then
                List.iter
                  (fun ((r : Spec.register), idx, cell) ->
                    if
                      not
                        (expected_matches ~lane:l ~snap:(i + 1) idx
                           r.Spec.reg_name cell)
                    then violations.(l) <- i :: violations.(l))
                  env.le_stage_cells.(k))
      done
    in
    let lob_retire ~cycle:_ ~lane ~tag ~rollback =
      match rollback with
      | None -> ()
      | Some _ when tag + 1 <= instr_of lane ->
        List.iter
          (fun ((r : Spec.register), idx, cell) ->
            if
              not
                (expected_matches ~lane ~snap:(tag + 1) idx r.Spec.reg_name
                   cell)
            then violations.(lane) <- tag :: violations.(lane))
          env.le_all_cells
      | Some _ -> ()
    in
    let obs = { Pipesem.lob_pre_edge; lob_post_edge; lob_retire } in
    let results =
      Pipesem.run_lanes_session ?ext ?cancel ~obs ~faulty ~ledger ~inits
        ~stop_afters env.le_pipe
    in
    Array.init act (fun l ->
        let r = results.(l) in
        let completed = r.Pipesem.lr_outcome = Pipesem.Completed in
        let final_ok =
          if rolled_back.(l) || not completed then true
          else
            List.for_all
              (fun ((reg : Spec.register), idx, cell) ->
                reg.Spec.stage <> n - 1
                || expected_matches ~lane:l ~snap:(instr_of l) idx
                     reg.Spec.reg_name cell)
              env.le_all_cells
        in
        {
          lv_ok =
            violations.(l) = []
            && completed
            && (rolled_back.(l) || not lemma_fail.(l))
            && final_ok;
          lv_outcome = r.Pipesem.lr_outcome;
          lv_stats = r.Pipesem.lr_stats;
          lv_divergence = r.Pipesem.lr_divergence;
        })
  with
  | verdicts ->
    Obs.Counters.ledger_flush ledger;
    verdicts
  | exception Exec.Cancel.Cancelled -> raise Exec.Cancel.Cancelled
  | exception _ ->
    (* The lane engine could not represent this pack (or hit a machine
       defect mid-pack).  Drop all staged work and re-check every lane
       through the scalar path, counters live: behaviour and WORK
       totals are the scalar sweep's by construction. *)
    let inject = if faulty then Some Pipesem.no_injection else None in
    Array.init act (fun l ->
        let reference =
          match references with Some refs -> Some refs.(l) | None -> None
        in
        match
          check_batched_result ?ext ?reference ?inject ?cancel
            ~max_instructions ~init:inits.(l) s
        with
        | Ok report ->
          {
            lv_ok = ok report;
            lv_outcome = report.outcome;
            lv_stats = report.stats;
            lv_divergence = -1;
          }
        | Error _ ->
          {
            lv_ok = false;
            lv_outcome = Pipesem.Out_of_cycles;
            lv_stats =
              {
                Pipesem.cycles = 0;
                retired = 0;
                fetch_stall_cycles = 0;
                dhaz_cycles = 0;
                ext_cycles = 0;
                rollbacks = 0;
                squashed = 0;
              };
            lv_divergence = -1;
          })
