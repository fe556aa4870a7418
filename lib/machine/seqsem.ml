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
   own tape). *)
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
