type trace = {
  spec_before : (string * Value.t) list array;
  instructions : int;
  halted : bool;
}

let step_stage m state ~stage =
  let env = State.eval_env state in
  let updates = Commit.stage_updates m ~stage ~env state in
  Commit.apply state updates

let run_instruction (m : Spec.t) state =
  for k = 0 to m.n_stages - 1 do
    step_stage m state ~stage:k
  done

(* Compiled machine: one plan per stage (a stage reads the state its
   predecessor just committed, so each stage re-loads and re-runs its
   own tape).  The scalar and lanes sessions bind the same plans. *)
type compiled = {
  cm_spec : Spec.t;
  cm_stages : (Hw.Plan.t * Commit.cstage) array;
}

let compile (m : Spec.t) =
  let build_stage k =
    let b = Hw.Plan.create ~auto:true () in
    let cs = Commit.compile_stage m b ~stage:k in
    (Hw.Plan.build b, cs)
  in
  { cm_spec = m; cm_stages = Array.init m.n_stages build_stage }

let spec cm = cm.cm_spec

(* A session: one persistent state with the per-stage plans bound to
   it once and each stage's writes resolved to its cells.
   [run_session] resets the state (cells mutate in place, so the
   bindings stay wired) and replays the machine on new initial
   contents. *)
type session = {
  ss_cm : compiled;
  ss_state : State.t;
  ss_stages : (State.bound * Commit.resolved) array;
  mutable ss_arena : (string * Value.t) list list;
      (* last run's trace snapshots, recycled by the next run — this
         is what invalidates a session's previous trace *)
}

let session cm =
  Obs.Counters.bump Obs.Counters.Sessions;
  let state = State.create cm.cm_spec in
  let stages =
    Array.map
      (fun (plan, cs) ->
        (State.bind_plan state plan, Commit.resolve_stage state cs))
      cm.cm_stages
  in
  { ss_cm = cm; ss_state = state; ss_stages = stages; ss_arena = [] }

let run_session ?(halt = fun _ -> false) ?init ~max_instructions s =
  let m = s.ss_cm.cm_spec in
  let state = s.ss_state in
  let stages = s.ss_stages in
  State.reset ?init m state;
  let step k =
    let bound, writes = stages.(k) in
    State.load bound;
    let inst = State.bound_instance bound in
    Hw.Plan.run inst;
    Commit.commit inst writes
  in
  let arena = ref s.ss_arena in
  s.ss_arena <- [];
  let snapshot () =
    let prev =
      match !arena with
      | [] -> []
      | p :: tl ->
        arena := tl;
        p
    in
    State.snapshot_visible_reusing ~prev m state
  in
  let snaps = ref [] in
  let count = ref 0 in
  let halted = ref false in
  (try
     while !count < max_instructions do
       if halt state then begin
         halted := true;
         raise Exit
       end;
       snaps := snapshot () :: !snaps;
       for k = 0 to m.n_stages - 1 do
         step k
       done;
       incr count
     done
   with Exit -> ());
  snaps := snapshot () :: !snaps;
  Obs.Counters.add Obs.Counters.Seq_instructions !count;
  s.ss_arena <- !snaps;
  ( {
      spec_before = Array.of_list (List.rev !snaps);
      instructions = !count;
      halted = !halted;
    },
    state )

let run_state_compiled ?halt ~max_instructions cm =
  run_session ?halt ~max_instructions (session cm)

(* Per-domain session cache: workers in an {!Exec.Pool} reuse one
   session per compiled machine instead of binding plans per task.
   Keyed by physical equality on [compiled]; bounded so abandoned
   machines are eventually collectable. *)
let local_sessions : (compiled * session) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let local_session cm =
  let cache = Domain.DLS.get local_sessions in
  match List.assq_opt cm !cache with
  | Some s -> s
  | None ->
    let s = session cm in
    cache := take 8 ((cm, s) :: !cache);
    s

(* ---- lane path: the reference model for up to 62 programs at once ---- *)

(* The lane mirror of [session]/[run_session]: one SoA state with each
   stage's plan bound as a lane instance.  No halt support — the lane
   drivers (batched BMC) always run a fixed instruction count.  All
   work counts are staged into the caller's ledger so an aborted pack
   leaves the totals untouched. *)
type lanes_session = {
  lss_cm : compiled;
  lss_state : State.lanes;
  lss_stages : (State.lanes_bound * Commit.cstage) array;
  mutable lss_prev : (int * (string * State.lane_value) list) option;
      (* last run's final snapshot with its lane count: seeds the next
         run's first snapshot so untouched registers alias instead of
         copying.  Only valid for a run with the same lane count — a
         different [act] may have clobbered packed-word garbage bits or
         truncated file spines beyond its own lanes. *)
}

type lane_trace = {
  lt_before : (string * State.lane_value) list array;
  lt_instructions : int;
}

let lanes_session ?capacity cm =
  Obs.Counters.bump Obs.Counters.Sessions;
  let state = State.create_lanes ?capacity cm.cm_spec in
  let stages =
    Array.map
      (fun (plan, cs) -> (State.bind_lanes state (Hw.Plan.lanes ?capacity plan), cs))
      cm.cm_stages
  in
  { lss_cm = cm; lss_state = state; lss_stages = stages; lss_prev = None }

let lanes_state s = s.lss_state

let run_lanes_session ~ledger ~inits ~max_instructions s =
  let m = s.lss_cm.cm_spec in
  let state = s.lss_state in
  let act = Array.length inits in
  (* Take the seed before clearing: if this run dies mid-pack, later
     snapshots will have cleared dirty bits the stale seed knows
     nothing about, so it must not survive an abort. *)
  let seed =
    match s.lss_prev with Some (a, p) when a = act -> Some p | _ -> None
  in
  s.lss_prev <- None;
  State.reset_lanes ~ledger ~inits state;
  let mask = Hw.Lanes.mask_of_count act in
  Array.iter
    (fun (lb, _) ->
      Hw.Plan.lanes_set_active (State.lanes_bound_instance lb) act)
    s.lss_stages;
  let step k =
    let lb, cs = s.lss_stages.(k) in
    State.load_lanes lb;
    let inst = State.lanes_bound_instance lb in
    Hw.Plan.run_lanes inst;
    Obs.Counters.ledger_add ledger Obs.Counters.Plan_runs act;
    Obs.Counters.ledger_add ledger Obs.Counters.Plan_ops
      (act * Hw.Plan.n_instrs (Hw.Plan.lanes_plan inst));
    Obs.Counters.ledger_add ledger Obs.Counters.Cells_written
      (Commit.lanes_stage_updates inst state ~mask cs)
  in
  (* Chain each snapshot off the previous one: registers untouched
     since the last snapshot alias its storage (copy-on-write in
     [State.snapshot_visible_lanes]), so a mostly-idle visible file
     (instruction memory, data memory) costs a pointer per step, not a
     deep copy. *)
  let snapshot prev = State.snapshot_visible_lanes ?prev ~ledger state in
  let snaps = ref [] in
  let prev = ref seed in
  for _ = 1 to max_instructions do
    let snap = snapshot !prev in
    prev := Some snap;
    snaps := snap :: !snaps;
    for k = 0 to m.n_stages - 1 do
      step k
    done
  done;
  let final = snapshot !prev in
  snaps := final :: !snaps;
  s.lss_prev <- Some (act, final);
  Obs.Counters.ledger_add ledger Obs.Counters.Seq_instructions
    (act * max_instructions);
  {
    lt_before = Array.of_list (List.rev !snaps);
    lt_instructions = max_instructions;
  }

let local_lanes_sessions : (compiled * lanes_session) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let local_lanes_session cm =
  let cache = Domain.DLS.get local_lanes_sessions in
  match List.assq_opt cm !cache with
  | Some s -> s
  | None ->
    let s = lanes_session cm in
    cache := take 8 ((cm, s) :: !cache);
    s

let run_state ?halt ~max_instructions (m : Spec.t) =
  run_state_compiled ?halt ~max_instructions (compile m)

let run ?halt ~max_instructions m =
  fst (run_state ?halt ~max_instructions m)

let ue_table ~n_stages ~cycles =
  let columns = List.init n_stages (fun k -> Printf.sprintf "ue_%d" k) in
  let wave = Hw.Wave.create ~columns in
  for t = 0 to cycles - 1 do
    Hw.Wave.record_bits wave
      (List.mapi (fun k c -> (c, t mod n_stages = k)) columns)
  done;
  wave
