module Spec = Machine.Spec
module State = Machine.State
module Pipesem = Pipeline.Pipesem
module SE = Pipeline.Stall_engine
module Evidence = Pipeline.Evidence

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
  | Lemma_failed of Evidence.t

type report = {
  instructions : int;
  edge_checks : int;
  violations : violation list;
  lemma1 : lemma1_status;
  invariants : (unit, Evidence.t) result;
  outcome : Pipesem.outcome;
  stats : Pipesem.stats;
  final_visible_match : bool option;
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

(* How the checker reads one visible register of the pipelined run,
   per lane: whether it matches a reference value, and its value for
   a violation message. *)
type reader = {
  matches : int -> Machine.Value.t -> bool;
  value : int -> Machine.Value.t;
}

(* A one-lane run's register: it matches its reference value either by
   provenance — the reference still shares the image the register was
   filled from and no write has touched the register since
   ({!Machine.State.holds_image}), the common case for a data memory no
   store has reached yet — or by comparing entries. *)
let state_reader state name =
  {
    matches =
      (fun _ expected ->
        State.holds_image state name expected
        || Machine.Value.equal expected (State.get state name));
    value = (fun _ -> State.get state name);
  }

(* A pack's register, the lane twin: a file lane still holding the very
   image array [expected] is ([lc_srcs]) matches without a scan. *)
let lanes_reader st name =
  let cell = State.lanes_cell st name in
  let w = cell.State.lc_width in
  let matches lane (expected : Machine.Value.t) =
    match (cell.State.lc_value, expected) with
    | State.Lfile _, Machine.Value.File arr
      when (match cell.State.lc_srcs.(lane) with
           | Some src -> src == arr
           | None -> false) ->
      true
    | State.Lbool got, Machine.Value.Scalar bv ->
      Hw.Lanes.test got.State.word lane = (Hw.Bitvec.to_int bv <> 0)
    | State.Lints got, Machine.Value.Scalar bv -> got.(lane) = Hw.Bitvec.to_int bv
    | State.Lfile got, Machine.Value.File arr ->
      let g = got.(lane) in
      Array.length g = Array.length arr
      &&
      let rec same j = j < 0 || (g.(j) = Hw.Bitvec.to_int arr.(j) && same (j - 1)) in
      same (Array.length g - 1)
    | _ -> false
  in
  let value lane =
    match cell.State.lc_value with
    | State.Lbool b ->
      Machine.Value.Scalar
        (Hw.Bitvec.make ~width:1 (if Hw.Lanes.test b.State.word lane then 1 else 0))
    | State.Lints a -> Machine.Value.Scalar (Hw.Bitvec.make ~width:w a.(lane))
    | State.Lfile rows ->
      Machine.Value.File (Array.map (Hw.Bitvec.make ~width:w) rows.(lane))
  in
  { matches; value }

(* One lane's co-simulation state. *)
type lane = {
  ln_spec : (string * Machine.Value.t) list array;  (* R_S^i *)
  ln_instructions : int;
  mutable ln_pending : violation list;  (* newest first *)
  mutable ln_edge_checks : int;
  mutable ln_rolled_back : bool;
  ln_row : int array;  (* I(k, T) *)
  ln_l1 : Evidence.sink;
  ln_se : Evidence.sink;
  ln_gaps : Liveness.gaps;
}

let compare_reg ln ~lane ~cycle ~stage ~tag snap ((r : Spec.register), rd) =
  ln.ln_edge_checks <- ln.ln_edge_checks + 1;
  match List.assoc_opt r.Spec.reg_name snap with
  | None -> ()
  | Some expected ->
    if not (rd.matches lane expected) then
      ln.ln_pending <-
        {
          at_cycle = cycle;
          at_stage = stage;
          tag;
          register = r.Spec.reg_name;
          expected = Format.asprintf "%a" Machine.Value.pp expected;
          got = Format.asprintf "%a" Machine.Value.pp (rd.value lane);
        }
        :: ln.ln_pending

let rec compare_regs ln ~lane ~cycle ~stage ~tag snap = function
  | [] -> ()
  | r :: tl ->
    compare_reg ln ~lane ~cycle ~stage ~tag snap r;
    compare_regs ln ~lane ~cycle ~stage ~tag snap tl

(* The co-simulation checker.  Lane [l] of the pipelined run is
   checked against the sequential trace [refs.(l)]:

   - right after instruction [i] updates stage [k] ([ue_k] edge),
     every visible register of [out(k)] holds [R_S^{i+1}]; a
     retiring rollback (precise interrupts) is checked against the
     full visible state;
   - violations are buffered per instruction tag: writes by an
     instruction that is later squashed by a rollback are speculative
     and corrected by the rollback writes (paper §5 — "the guessed
     value has no influence on the correctness"), so its pending
     comparisons are cancelled when the squash happens;
   - Lemma 1 ({!Pipeline.Schedule.lemma1_step}) until the first
     rollback, and the stall-engine invariants ({!Trace_invariants}),
     once per cycle;
   - the final visible state of the last stage, and the liveness gaps.

   [run] drives the pipelined machine with the checker's observer: a
   one-lane session or a pack, whose registers [reader] reads. *)
let check_core ~(refs : Machine.Seqsem.trace array) ~reader ~run
    (t : Pipeline.Transform.t) =
  let base = t.Pipeline.Transform.base in
  let n = base.Spec.n_stages in
  let act = Array.length refs in
  let visible =
    List.map
      (fun (r : Spec.register) -> (r, reader r.Spec.reg_name))
      (Spec.visible_registers base)
  in
  let of_stage =
    Array.init n (fun k ->
        List.filter (fun ((r : Spec.register), _) -> r.Spec.stage = k) visible)
  in
  let lanes =
    Array.map
      (fun (tr : Machine.Seqsem.trace) ->
        {
          ln_spec = tr.Machine.Seqsem.spec_before;
          ln_instructions = tr.Machine.Seqsem.instructions;
          ln_pending = [];
          ln_edge_checks = 0;
          ln_rolled_back = false;
          ln_row = Array.make n 0;
          ln_l1 = Evidence.sink ();
          ln_se = Evidence.sink ();
          ln_gaps = Liveness.gaps ();
        })
      refs
  in
  let prev = SE.lane_signals ~n_stages:n in
  let prev_tags = Array.init n (fun _ -> Array.make act (-1)) in
  let ob_cycle ~cycle ~running (s : SE.lane_signals) ~dhaz:_ ~ext:_ ~tags =
    for l = 0 to act - 1 do
      if Hw.Lanes.test running l then begin
        let ln = lanes.(l) in
        Liveness.on_cycle ln.ln_gaps ~cycle;
        (* A rollback at stage k squashes the instructions in stages
           0..k: cancel their buffered comparisons.  The retiring
           instruction itself (if the speculation retires) is
           re-checked against the full visible state on retirement. *)
        let deepest = ref (-1) in
        for k = 0 to n - 1 do
          if Hw.Lanes.test s.SE.l_rollback.(k) l then deepest := k
        done;
        if !deepest >= 0 then begin
          ln.ln_rolled_back <- true;
          let b = tags.(!deepest).(l) in
          if b >= 0 then
            ln.ln_pending <- List.filter (fun v -> v.tag < b) ln.ln_pending
        end;
        if not ln.ln_rolled_back then
          Pipeline.Schedule.lemma1_step ln.ln_l1 ~cycle ~lane:l ~row:ln.ln_row s
            ~tags;
        Trace_invariants.step ln.ln_se ~n_stages:n ~cycle ~lane:l ~prev ~prev_tags
          ~cross:(cycle > 0) s ~tags
      end
    done;
    Array.blit s.SE.l_full 0 prev.SE.l_full 0 n;
    Array.blit s.SE.l_stall 0 prev.SE.l_stall 0 n;
    Array.blit s.SE.l_rollback 0 prev.SE.l_rollback 0 n;
    Array.blit s.SE.l_ue 0 prev.SE.l_ue 0 n;
    for k = 0 to n - 1 do
      Array.blit tags.(k) 0 prev_tags.(k) 0 act
    done
  in
  let ob_edge ~cycle ~running (s : SE.lane_signals) ~tags =
    for k = 0 to n - 1 do
      let ue = s.SE.l_ue.(k) land running in
      if ue <> 0 then
        for l = 0 to act - 1 do
          if Hw.Lanes.test ue l then begin
            let ln = lanes.(l) in
            let i = tags.(k).(l) in
            if i >= 0 && i + 1 <= ln.ln_instructions then
              compare_regs ln ~lane:l ~cycle ~stage:k ~tag:i ln.ln_spec.(i + 1)
                of_stage.(k)
          end
        done
    done
  in
  let ob_retire ~cycle:_ ~lane ~tag ~kind =
    let ln = lanes.(lane) in
    Liveness.on_retire ln.ln_gaps;
    match kind with
    | Pipesem.Via_rollback _ when tag + 1 <= ln.ln_instructions ->
      (* The rollback writes realize the instruction's sequential
         semantics; compare the full visible state. *)
      compare_regs ln ~lane ~cycle:(-1) ~stage:(-1) ~tag ln.ln_spec.(tag + 1)
        visible
    | Pipesem.Normal | Pipesem.Via_rollback _ -> ()
  in
  let obs = { Pipesem.no_observer with Pipesem.ob_cycle; ob_edge; ob_retire } in
  let results =
    run ~obs ~stop_afters:(Array.map (fun ln -> ln.ln_instructions) lanes)
  in
  Array.mapi
    (fun l (r : Pipesem.lane_result) ->
      let ln = lanes.(l) in
      let final_visible_match =
        if ln.ln_rolled_back || r.Pipesem.lr_outcome <> Pipesem.Completed then None
        else
          (* Registers of the last stage see no over-fetch interference. *)
          Some
            (List.for_all
               (fun ((r : Spec.register), rd) ->
                 match
                   List.assoc_opt r.Spec.reg_name ln.ln_spec.(ln.ln_instructions)
                 with
                 | None -> true
                 | Some expected -> rd.matches l expected)
               of_stage.(n - 1))
      in
      {
        instructions = ln.ln_instructions;
        edge_checks = ln.ln_edge_checks;
        violations = List.rev ln.ln_pending;
        lemma1 =
          (if ln.ln_rolled_back then Lemma_skipped_rollback
           else
             match Evidence.result ln.ln_l1 with
             | Ok () -> Lemma_ok
             | Error e -> Lemma_failed e);
        invariants = Evidence.result ln.ln_se;
        outcome = r.Pipesem.lr_outcome;
        stats = r.Pipesem.lr_stats;
        final_visible_match;
        liveness = Liveness.of_run ~n_stages:n ln.ln_gaps r;
      })
    results

(* A one-lane check: the session's own state is what the checker
   reads. *)
let check_session ?ext ?inject ?cancel ?init ~seq_trace s t =
  let state = Pipesem.session_state s in
  (check_core ~refs:[| seq_trace |] ~reader:(state_reader state) t
     ~run:(fun ~obs ~stop_afters ->
       [|
         Pipesem.run_observed ?ext ?inject ?cancel ?init ~obs
           ~stop_after:stop_afters.(0) s;
       |])).(0)

let check ?ext ?(max_instructions = 200) ?reference ?compiled ?inject
    ?cancel (t : Pipeline.Transform.t) =
  Obs.Span.with_span "verify.consistency" @@ fun () ->
  let seq_trace =
    match reference with
    | Some trace -> trace
    | None -> Machine.Seqsem.run ~max_instructions t.Pipeline.Transform.base
  in
  let c = match compiled with Some c -> c | None -> Pipesem.compile t in
  check_session ?ext ?inject ?cancel ~seq_trace (Pipesem.session c) t

(* A machine shape ready for batched checking: the transform plus both
   compiled machines, all immutable and freely shared across domains.
   Per-program mutable state lives in per-domain sessions and packs
   created on demand, so a pool worker binds each plan exactly once. *)
type shape = {
  sh_tr : Pipeline.Transform.t;
  sh_pipe : Pipesem.compiled;
  sh_seq : Machine.Seqsem.compiled;
  mutable sh_digest : string option;
      (* memoized {!Pipeline.Transform.digest} of [sh_tr]: lets the
         pack cache recognise a freshly built but structurally
         identical shape and reuse its warmed pack *)
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
  check_session ?ext ?inject ?cancel ?init ~seq_trace
    (Pipesem.local_session s.sh_pipe) s.sh_tr

type failure = {
  failing_phase : string;
  message : string;
}

(* Any exception the co-simulation raises — a plan width violation
   from a structurally mutated machine, an unknown-register access
   from a corrupted address, an interpreter Eval_error — as a typed
   failure for the callers that keep going (BMC, obligations). *)
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

let pp_report ppf r =
  Format.fprintf ppf
    "data consistency: %d instructions, %d retirements, %d register \
     comparisons, %d violations; lemma 1: %s; outcome: %s@."
    r.instructions r.liveness.Liveness.checked r.edge_checks
    (List.length r.violations)
    (match r.lemma1 with
    | Lemma_ok -> "ok"
    | Lemma_skipped_rollback -> "skipped (rollbacks)"
    | Lemma_failed e -> Printf.sprintf "%d violations" e.Evidence.total)
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
(* Lane packs: up to 62 programs co-simulated in one pack run, each
   lane against its own sequential trace, by the same checker.        *)
(* ------------------------------------------------------------------ *)

type lane_verdict = {
  lv_ok : bool;
  lv_stats : Pipesem.stats;
  lv_report : report;
}

(* Per-domain pack cache, keyed by the shape's structural digest:
   a caller that rebuilds the same transform per query — the bench
   loop, a service handler — lands back on a warmed pack instead of
   binding the plan anew. *)
let local_packs : (string * Pipesem.pack) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let local_pack s =
  let cache = Domain.DLS.get local_packs in
  let key = shape_digest s in
  match List.assoc_opt key !cache with
  | Some p -> p
  | None ->
    let p = Pipesem.pack s.sh_pipe in
    cache := List.filteri (fun i _ -> i < 8) ((key, p) :: !cache);
    p

let check_lanes ?ext ?cancel ~references ~inits (s : shape) =
  Obs.Span.with_span "verify.consistency_lanes" @@ fun () ->
  let act = Array.length inits in
  if act = 0 then invalid_arg "Consistency.check_lanes: empty pack";
  if Array.length references <> act then
    invalid_arg "Consistency.check_lanes: references/inits length mismatch";
  let pack = local_pack s in
  let st = Pipesem.pack_state pack in
  Array.map
    (fun r -> { lv_ok = ok r; lv_stats = r.stats; lv_report = r })
    (check_core ~refs:references ~reader:(lanes_reader st) s.sh_tr
       ~run:(fun ~obs ~stop_afters ->
         Pipesem.run_pack ?ext ?cancel ~obs ~inits ~stop_afters pack))
