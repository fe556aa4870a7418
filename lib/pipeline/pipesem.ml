module State = Machine.State

type ext_model = stage:int -> cycle:int -> bool

type retire_kind =
  | Normal
  | Via_rollback of string

type cycle_record = {
  cycle : int;
  full : bool array;
  stall : bool array;
  dhaz : bool array;
  ext : bool array;
  rollback : bool array;
  ue : bool array;
  tags : int option array;
}

type callbacks = {
  on_signals : cycle:int -> (string -> Hw.Bitvec.t option) -> unit;
  on_cycle : cycle_record -> unit;
  on_edge : cycle_record -> Machine.State.t -> unit;
  on_retire : tag:int -> kind:retire_kind -> Machine.State.t -> unit;
}

let no_callbacks =
  {
    on_signals = (fun ~cycle:_ _ -> ());
    on_cycle = (fun _ -> ());
    on_edge = (fun _ _ -> ());
    on_retire = (fun ~tag:_ ~kind:_ _ -> ());
  }

type outcome =
  | Completed
  | Deadlocked
  | Out_of_cycles

type stats = {
  cycles : int;
  retired : int;
  fetch_stall_cycles : int;
  dhaz_cycles : int;
  ext_cycles : int;
  rollbacks : int;
  squashed : int;
}

type result = {
  outcome : outcome;
  stats : stats;
  state : Machine.State.t;
}

let bool_bv b = Hw.Bitvec.of_bool b

(* ------------------------------------------------------------------ *)
(* Fault injection.  The hooks mirror where a physical fault would sit
   in the generated machine: on the full-bit register outputs (feeding
   both the synthesized signals and the stall engine), inside the
   stall engine's input/output wiring, or on a pipeline register right
   at the clock edge (a single-event upset).                           *)
(* ------------------------------------------------------------------ *)

type injection = {
  inj_fullb : cycle:int -> bool array -> bool array;
  inj_compute :
    cycle:int ->
    compute:(dhaz:bool array -> Stall_engine.signals) ->
    dhaz:bool array ->
    Stall_engine.signals;
  inj_edge : cycle:int -> Machine.State.t -> unit;
}

let no_injection =
  {
    inj_fullb = (fun ~cycle:_ fullb -> fullb);
    inj_compute = (fun ~cycle:_ ~compute ~dhaz -> compute ~dhaz);
    inj_edge = (fun ~cycle:_ _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* What ends a run.  Besides completing, a run stops at the first sign
   that it cannot satisfy liveness (paper 6.3): [deadlock_window]
   consecutive cycles in which nothing moves, or — checked after it —
   the end of a cycle after which any later retirement would be a gap
   wider than the liveness bound.  Gaps count both end cycles, from
   reset (cycle 0) for the first retirement; {!Proof_engine.Liveness}
   measures them with [retirement_gap] too, so a completed run is
   always within the bound and nothing else needs a cycle budget.      *)
(* ------------------------------------------------------------------ *)

let liveness_bound ~n_stages = (8 * n_stages) + 64
let deadlock_window ~n_stages = (4 * n_stages) + 64
let retirement_gap ~last ~cycle = cycle - last + 1

(* ------------------------------------------------------------------ *)
(* The cycle driver, generic over how a cycle's combinational values
   are produced.  Both the compiled (plan) and the reference (closure)
   engines drive exactly this loop, so their schedules, statistics and
   verdicts agree by construction.                                     *)
(* ------------------------------------------------------------------ *)

type engine = {
  eng_begin : cycle:int -> fullb:bool array -> ext_now:bool array -> unit;
      (* bind the free inputs and evaluate the cycle's signals *)
  eng_lookup : string -> Hw.Bitvec.t option;  (* on_signals view *)
  eng_dhaz : int -> bool;
  eng_mispredict : Fwd_spec.speculation -> bool;
  eng_edge : ue:bool array -> firing:Fwd_spec.speculation option -> unit;
      (* the clock edge: evaluate the writes of every stage with [ue]
         and of the firing speculation's rollback against the pre-edge
         state, then commit them all — stages in order, the rollback
         last *)
}

let run_loop ~engine ~state ?(ext = fun ~stage:_ ~cycle:_ -> false)
    ?(callbacks = no_callbacks) ?inject ?(cancel = Exec.Cancel.never)
    ~stop_after (t : Transform.t) =
  (* Under injection the control invariants the unfaulted engine
     guarantees (a firing stage holds an instruction) no longer hold;
     the loop degrades to "no tag, no retirement" instead of
     asserting. *)
  let faulty = inject <> None in
  let inject = match inject with Some i -> i | None -> no_injection in
  let m = t.Transform.machine in
  let n = m.Machine.Spec.n_stages in
  let bound = liveness_bound ~n_stages:n in
  let deadlock_window = deadlock_window ~n_stages:n in
  let fullb = Array.make n false in
  let tags = Array.make n None in
  tags.(0) <- Some 0;
  let retired = ref 0 in
  let cycle = ref 0 in
  let idle = ref 0 in
  let last_retire = ref 0 in
  let outcome = ref Out_of_cycles in
  let fetch_stall_cycles = ref 0 in
  let dhaz_cycles = ref 0 in
  let ext_cycles = ref 0 in
  let rollbacks = ref 0 in
  let squashed = ref 0 in
  (while
     !retired < stop_after
     && !outcome <> Deadlocked
     && retirement_gap ~last:!last_retire ~cycle:!cycle <= bound
   do
     Exec.Cancel.check cancel;
     (* Bind the free inputs (full and ext per stage) and evaluate the
        synthesized signals in definition order.  A full-bit fault is
        applied to the register outputs, so it feeds the synthesized
        signals and the stall engine alike — the register itself is
        untouched. *)
     let ext_now = Array.init n (fun k -> ext ~stage:k ~cycle:!cycle) in
     let fullb_eff = inject.inj_fullb ~cycle:!cycle fullb in
     engine.eng_begin ~cycle:!cycle ~fullb:fullb_eff ~ext_now;
     callbacks.on_signals ~cycle:!cycle engine.eng_lookup;
     let dhaz = Array.init n engine.eng_dhaz in
     (* Stall engine, with the injection as middleware: input-wire
        faults perturb [dhaz], control-wire faults rewrite the
        computed signals. *)
     let mispredict ~stage ~stalled =
       (not stalled)
       && List.exists
            (fun (sp : Fwd_spec.speculation) ->
              sp.Fwd_spec.resolve_stage = stage && engine.eng_mispredict sp)
            t.Transform.speculations
     in
     let compute ~dhaz =
       Stall_engine.compute ~fullb:fullb_eff ~dhaz ~ext:ext_now ~mispredict
     in
     let s = inject.inj_compute ~cycle:!cycle ~compute ~dhaz in
     let record =
       {
         cycle = !cycle;
         full = Array.copy s.Stall_engine.full;
         stall = Array.copy s.Stall_engine.stall;
         dhaz = Array.copy dhaz;
         ext = Array.copy ext_now;
         rollback = Array.copy s.Stall_engine.rollback;
         ue = Array.copy s.Stall_engine.ue;
         tags = Array.copy tags;
       }
     in
     callbacks.on_cycle record;
     (* Which speculation fires?  Only the deepest rollback commits its
        corrective writes; everything at or above it is squashed. *)
     let deepest_rollback =
       let rec find k = if k < 0 then None else if s.rollback.(k) then Some k else find (k - 1) in
       find (n - 1)
     in
     let firing_spec =
       match deepest_rollback with
       | None -> None
       | Some k ->
         List.find_opt
           (fun (sp : Fwd_spec.speculation) ->
             sp.Fwd_spec.resolve_stage = k && engine.eng_mispredict sp)
           t.Transform.speculations
     in
     (* Clock edge: registers, tags, full bits.  A transient fault
        (single-event upset) flips its bit right after the edge, so
        the consistency checker observes the corrupted state exactly
        as downstream hardware would. *)
     engine.eng_edge ~ue:s.ue ~firing:firing_spec;
     inject.inj_edge ~cycle:!cycle state;
     callbacks.on_edge record state;
     let retirements = ref [] in
     if s.ue.(n - 1) then (
       match tags.(n - 1) with
       | Some tag -> retirements := (tag, Normal) :: !retirements
       | None -> assert faulty);
     (match (deepest_rollback, firing_spec) with
     | Some k, Some sp when sp.Fwd_spec.retires -> (
       match tags.(k) with
       | Some tag -> retirements := (tag, Via_rollback sp.Fwd_spec.spec_label) :: !retirements
       | None -> assert faulty)
     | Some _, Some _ | Some _, None | None, _ -> ());
     (* Count evicted (non-retiring) instructions. *)
     (match deepest_rollback with
     | None -> ()
     | Some k ->
       incr rollbacks;
       for j = 0 to k do
         match tags.(j) with
         | Some tag
           when not (List.exists (fun (t', _) -> t' = tag) !retirements) ->
           if s.full.(j) then incr squashed
         | Some _ | None -> ()
       done);
     (* Tag shift. *)
     let old_tags = Array.copy tags in
     for st = n - 1 downto 1 do
       tags.(st) <-
         (if s.rollback_up.(st) then None
          else if s.ue.(st - 1) then old_tags.(st - 1)
          else if s.stall.(st) && s.full.(st) then old_tags.(st)
          else None)
     done;
     (match (deepest_rollback, firing_spec) with
     | Some k, Some sp ->
       let base = match old_tags.(k) with Some tag -> tag | None -> 0 in
       tags.(0) <- Some (base + if sp.Fwd_spec.retires then 1 else 0)
     | Some k, None ->
       (* A rollback with no matching speculation cannot happen: the
          mispredict test selected one.  Keep the fetch tag. *)
       ignore k
     | None, _ ->
       if s.ue.(0) then
         tags.(0) <-
           Some ((match old_tags.(0) with Some tag -> tag | None -> 0) + 1));
     let fullb' = Stall_engine.next_fullb s in
     Array.blit fullb' 0 fullb 0 n;
     (* Statistics and liveness. *)
     if s.stall.(0) then incr fetch_stall_cycles;
     if Array.exists (fun b -> b) dhaz then incr dhaz_cycles;
     if Array.exists (fun b -> b) ext_now then incr ext_cycles;
     List.iter
       (fun (tag, kind) ->
         incr retired;
         callbacks.on_retire ~tag ~kind state)
       (List.sort compare !retirements);
     if !retirements <> [] then last_retire := !cycle;
     if Array.exists (fun b -> b) s.ue || !retirements <> [] then idle := 0
     else begin
       incr idle;
       if !idle > deadlock_window then outcome := Deadlocked
     end;
     incr cycle
   done);
  if !retired >= stop_after then outcome := Completed;
  Obs.Counters.add Obs.Counters.Sim_cycles !cycle;
  Obs.Counters.add Obs.Counters.Sim_retired !retired;
  {
    outcome = !outcome;
    stats =
      {
        cycles = !cycle;
        retired = !retired;
        fetch_stall_cycles = !fetch_stall_cycles;
        dhaz_cycles = !dhaz_cycles;
        ext_cycles = !ext_cycles;
        rollbacks = !rollbacks;
        squashed = !squashed;
      };
    state;
  }

(* ------------------------------------------------------------------ *)
(* Compiled engine: one evaluation plan per transformed machine.       *)
(* ------------------------------------------------------------------ *)

type compiled = {
  c_tr : Transform.t;
  c_plan : Hw.Plan.t;
  c_free : (string, unit) Hashtbl.t;  (* the $full_k / $ext_k names *)
  c_full_slots : int array;
  c_ext_slots : int array;
  c_dhaz_slots : int array;
  c_spec_slots : (Fwd_spec.speculation * int) list;     (* assq *)
  c_stages : Machine.Commit.cstage array;
  c_rollbacks : (Fwd_spec.speculation * Machine.Commit.cwrite list) list;
}

let compile (t : Transform.t) =
  Obs.Span.with_span "pipesem.compile" @@ fun () ->
  let m = t.Transform.machine in
  let n = m.Machine.Spec.n_stages in
  let b = Hw.Plan.create ~auto:true () in
  (* Free inputs first, so they exist even when no signal reads them. *)
  let c_full_slots =
    Array.init n (fun k -> Hw.Plan.input b (Transform.full_signal k) 1)
  in
  let c_ext_slots =
    Array.init n (fun k -> Hw.Plan.input b (Transform.ext_signal k) 1)
  in
  List.iter
    (fun (name, e) -> ignore (Hw.Plan.define b name e))
    t.Transform.signals;
  let c_spec_slots =
    List.map
      (fun (sp : Fwd_spec.speculation) ->
        (sp, Hw.Plan.root b sp.Fwd_spec.mispredict))
      t.Transform.speculations
  in
  let c_stages =
    Array.init n (fun k -> Machine.Commit.compile_stage m b ~stage:k)
  in
  let c_rollbacks =
    List.map
      (fun (sp : Fwd_spec.speculation) ->
        (sp, Machine.Commit.compile_writes m b sp.Fwd_spec.rollback_writes))
      t.Transform.speculations
  in
  let plan = Hw.Plan.build b in
  let c_dhaz_slots =
    Array.map
      (fun name ->
        match Hw.Plan.define_slot plan name with
        | Some s -> s
        | None -> invalid_arg ("Pipesem.compile: no dhaz signal " ^ name))
      t.Transform.stage_dhaz
  in
  let c_free = Hashtbl.create (2 * n) in
  for k = 0 to n - 1 do
    Hashtbl.replace c_free (Transform.full_signal k) ();
    Hashtbl.replace c_free (Transform.ext_signal k) ()
  done;
  {
    c_tr = t;
    c_plan = plan;
    c_free;
    c_full_slots;
    c_ext_slots;
    c_dhaz_slots;
    c_spec_slots;
    c_stages;
    c_rollbacks;
  }

let transform c = c.c_tr
let plan c = c.c_plan

(* Cross-request plan reuse: two transforms of the same shape (same
   stages, registers and synthesized signals — only initial values
   differ, the batched-path contract) can share one compiled plan.
   The returned [compiled] carries [t], so state creation and session
   resets read [t]'s init, and its speculation tables are re-keyed
   onto [t]'s own speculation records: the engines look them up by
   physical equality on the records the running transform holds.
   The structural guard is deliberately cheap: name-level equality
   catches shape drift without re-walking expression trees
   (transforms of one machine builder are expression-identical by
   construction). *)
let rebind c (t : Transform.t) =
  let spec_shape (t : Transform.t) =
    List.map
      (fun (sp : Fwd_spec.speculation) ->
        (sp.Fwd_spec.spec_label, sp.Fwd_spec.resolve_stage))
      t.Transform.speculations
  in
  let m0 = c.c_tr.Transform.machine and m1 = t.Transform.machine in
  let reg_names (m : Machine.Spec.t) =
    List.map
      (fun r ->
        ( r.Machine.Spec.reg_name,
          r.Machine.Spec.width,
          r.Machine.Spec.stage,
          r.Machine.Spec.kind ))
      m.Machine.Spec.registers
  in
  if
    m0.Machine.Spec.n_stages <> m1.Machine.Spec.n_stages
    || reg_names m0 <> reg_names m1
    || List.map fst c.c_tr.Transform.signals <> List.map fst t.Transform.signals
    || c.c_tr.Transform.stage_dhaz <> t.Transform.stage_dhaz
    || spec_shape c.c_tr <> spec_shape t
  then invalid_arg "Pipesem.rebind: transforms differ in shape";
  let rekey l =
    List.map2 (fun (_, x) sp -> (sp, x)) l t.Transform.speculations
  in
  {
    c with
    c_tr = t;
    c_spec_slots = rekey c.c_spec_slots;
    c_rollbacks = rekey c.c_rollbacks;
  }

let plan_engine c state =
  let bound =
    State.bind_plan ~extern:(Hashtbl.mem c.c_free) state c.c_plan
  in
  let inst = State.bound_instance bound in
  let n = Array.length c.c_full_slots in
  (* [eng_begin] runs the whole tape, so every commit value, guard and
     address is computed against the pre-edge state before the first
     commit writes it. *)
  let stages = Array.map (Machine.Commit.resolve_stage state) c.c_stages in
  let rollbacks =
    List.map
      (fun (sp, ws) -> (sp, Machine.Commit.resolve_writes state ws))
      c.c_rollbacks
  in
  let eng_begin ~cycle:_ ~fullb ~ext_now =
    State.load bound;
    for k = 0 to n - 1 do
      Hw.Plan.set inst c.c_full_slots.(k) (bool_bv (k = 0 || fullb.(k)));
      Hw.Plan.set inst c.c_ext_slots.(k) (bool_bv ext_now.(k))
    done;
    Hw.Plan.run inst
  in
  let eng_lookup name =
    match Hw.Plan.read_name inst name with
    | Some v -> Some v
    | None -> (
      match Machine.State.get state name with
      | Machine.Value.Scalar v -> Some v
      | Machine.Value.File _ -> None
      | exception Invalid_argument _ -> None)
  in
  {
    eng_begin;
    eng_lookup;
    eng_dhaz = (fun k -> Hw.Plan.get_bool inst c.c_dhaz_slots.(k));
    eng_mispredict =
      (fun sp -> Hw.Plan.get_bool inst (List.assq sp c.c_spec_slots));
    eng_edge =
      (fun ~ue ~firing ->
        for k = 0 to n - 1 do
          if ue.(k) then Machine.Commit.commit inst stages.(k)
        done;
        Option.iter
          (fun sp -> Machine.Commit.commit inst (List.assq sp rollbacks))
          firing);
  }

(* A session: one persistent state with the plan bound to it once.
   [run_session] resets the state in place (bindings survive) and
   replays the machine on new initial contents — many programs, one
   compilation and one plan binding. *)
type session = {
  s_c : compiled;
  s_state : State.t;
  s_engine : engine;
}

let session c =
  Obs.Counters.bump Obs.Counters.Sessions;
  let state = State.create c.c_tr.Transform.machine in
  { s_c = c; s_state = state; s_engine = plan_engine c state }

let run_session ?ext ?callbacks ?inject ?cancel ?init ~stop_after s =
  Obs.Span.with_span "pipesem.run" @@ fun () ->
  (* The reset also repairs state left dirty by a cancelled, faulted
     or raising previous run on this session. *)
  State.reset ?init s.s_c.c_tr.Transform.machine s.s_state;
  run_loop ~engine:s.s_engine ~state:s.s_state ?ext ?callbacks ?inject
    ?cancel ~stop_after s.s_c.c_tr

(* Per-domain session cache, keyed by physical equality on the
   compiled machine: pool workers allocate (and plan-bind) one
   instance per domain, not per task.  Bounded so abandoned machines
   become collectable. *)
let local_sessions : (compiled * session) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let local_session c =
  let cache = Domain.DLS.get local_sessions in
  match List.assq_opt c !cache with
  | Some s -> s
  | None ->
    let s = session c in
    cache := take 8 ((c, s) :: !cache);
    s

let run_compiled ?ext ?callbacks ?inject ?cancel ~stop_after c =
  run_session ?ext ?callbacks ?inject ?cancel ~stop_after (session c)

(* ------------------------------------------------------------------ *)
(* Bit-parallel lane loop: the same cycle driver, advancing a whole
   pack of programs per iteration.  The control fabric (full, stall,
   rollback, ue, tags) lives in packed words/word arrays; register
   values in the SoA lane state.  Every decision the scalar loop makes
   per run is made here per lane, in the same per-cycle order, so a
   lane's outcome, stats and observer view are bit-identical to a solo
   scalar run of the same program.

   Injection hooks are not supported: lane drivers only engage for
   runs whose injection is absent or the physical [no_injection]
   record (structural mutants).  [faulty] relaxes the missing-tag
   asserts exactly like the scalar loop's [inject <> None].

   Work accounting goes into the caller's ledger; any exception means
   the caller discards it and replays each lane through the scalar
   path, which reproduces behaviour and counters exactly.             *)
(* ------------------------------------------------------------------ *)

type lane_result = {
  lr_outcome : outcome;
  lr_stats : stats;
  lr_divergence : int;
      (* first cycle a stall/rollback word split this lane from the
         pack's majority; -1 = never diverged *)
}

type lane_obs = {
  lob_pre_edge :
    cycle:int -> Stall_engine.lane_signals -> tags:int array array ->
    running:int -> unit;
      (* after signal evaluation, before the clock edge; [tags] are
         the pre-shift tags (-1 = none), stage-major, lane-indexed *)
  lob_post_edge :
    cycle:int -> Stall_engine.lane_signals -> tags:int array array ->
    running:int -> unit;
      (* after the clock edge commits, tags still pre-shift *)
  lob_retire : cycle:int -> lane:int -> tag:int -> rollback:string option -> unit;
      (* after [lob_post_edge], in (tag, kind) order per lane *)
}

let no_lane_obs =
  {
    lob_pre_edge = (fun ~cycle:_ _ ~tags:_ ~running:_ -> ());
    lob_post_edge = (fun ~cycle:_ _ ~tags:_ ~running:_ -> ());
    lob_retire = (fun ~cycle:_ ~lane:_ ~tag:_ ~rollback:_ -> ());
  }

type lane_session = {
  lns_c : compiled;
  lns_state : State.lanes;
  lns_inst : Hw.Plan.lanes;
  lns_bound : State.lanes_bound;
}

let lanes_session ?capacity c =
  Obs.Counters.bump Obs.Counters.Sessions;
  let state = State.create_lanes ?capacity c.c_tr.Transform.machine in
  let inst = Hw.Plan.lanes ?capacity c.c_plan in
  let bound = State.bind_lanes ~extern:(Hashtbl.mem c.c_free) state inst in
  { lns_c = c; lns_state = state; lns_inst = inst; lns_bound = bound }

let lanes_state ls = ls.lns_state

let local_lane_sessions : (compiled * lane_session) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let local_lanes_session c =
  let cache = Domain.DLS.get local_lane_sessions in
  match List.assq_opt c !cache with
  | Some s -> s
  | None ->
    let s = lanes_session c in
    cache := take 8 ((c, s) :: !cache);
    s

(* get_bool on a wide slot is a nonzero test; mirror that when
   lifting a slot to a packed word. *)
let word_of_slot inst ~act s =
  if Hw.Plan.lanes_is_bool inst s then Hw.Plan.lanes_word inst s
  else begin
    let v = Hw.Plan.lanes_ints inst s in
    let w = ref 0 in
    for l = 0 to act - 1 do
      if v.(l) <> 0 then w := !w lor (1 lsl l)
    done;
    !w
  end

let run_lanes_session ?(ext = fun ~stage:_ ~cycle:_ -> false)
    ?(cancel = Exec.Cancel.never) ?(obs = no_lane_obs) ?(faulty = false)
    ~ledger ~inits ~stop_afters ls =
  Obs.Span.with_span "pipesem.run_lanes" @@ fun () ->
  let c = ls.lns_c in
  let t = c.c_tr in
  let m = t.Transform.machine in
  let n = m.Machine.Spec.n_stages in
  let act = Array.length inits in
  if Array.length stop_afters <> act then
    invalid_arg "Pipesem.run_lanes_session: inits/stop_afters length mismatch";
  State.reset_lanes ~ledger ~inits ls.lns_state;
  Hw.Plan.lanes_set_active ls.lns_inst act;
  let inst = ls.lns_inst in
  let all = Hw.Lanes.mask_of_count act in
  (* Lane packs account the same per-program op counts as the scalar
     engine: one whole-tape run per cycle of every running lane. *)
  let tape_len = Hw.Plan.n_instrs c.c_plan in
  let bound = liveness_bound ~n_stages:n in
  let deadlock_window = deadlock_window ~n_stages:n in
  let fullb = Array.make n 0 in
  let tags = Array.init n (fun _ -> Array.make act (-1)) in
  Array.fill tags.(0) 0 act 0;
  let old_tags = Array.init n (fun _ -> Array.make act (-1)) in
  let running = ref all in
  let cycle = ref 0 in
  let retired = Array.make act 0 in
  let idle = Array.make act 0 in
  let last_retire = Array.make act 0 in
  let out = Array.make act Out_of_cycles in
  let out_cycles = Array.make act 0 in
  let fetch_stall = Array.make act 0 in
  let dhaz_c = Array.make act 0 in
  let ext_c = Array.make act 0 in
  let rollbacks = Array.make act 0 in
  let squashed = Array.make act 0 in
  let diverged = Array.make act (-1) in
  let deep = Array.make act (-1) in
  let fspec : Fwd_spec.speculation option array = Array.make act None in
  let deepw = Array.make n 0 in
  let taken = Array.make n 0 in
  let deactivate l oc =
    running := Hw.Lanes.clear !running l;
    out.(l) <- oc;
    out_cycles.(l) <- !cycle;
    Obs.Counters.ledger_add ledger Obs.Counters.Sim_cycles out_cycles.(l);
    Obs.Counters.ledger_add ledger Obs.Counters.Sim_retired retired.(l)
  in
  (* stop_after <= 0 completes without entering the loop, like the
     scalar while condition *)
  for l = 0 to act - 1 do
    if stop_afters.(l) <= 0 then deactivate l Completed
  done;
  while !running <> 0 do
    Exec.Cancel.check cancel;
    let run_mask = !running in
    let n_running = Hw.Lanes.popcount run_mask in
    (* ---- begin: bind free inputs, evaluate the pack's signals ---- *)
    State.load_lanes ls.lns_bound;
    let ext_now = Array.init n (fun k -> ext ~stage:k ~cycle:!cycle) in
    for k = 0 to n - 1 do
      Hw.Plan.lanes_set_word inst c.c_full_slots.(k)
        (if k = 0 then all else fullb.(k));
      Hw.Plan.lanes_set_word inst c.c_ext_slots.(k)
        (if ext_now.(k) then all else 0)
    done;
    Hw.Plan.run_lanes inst;
    Obs.Counters.ledger_add ledger Obs.Counters.Plan_runs n_running;
    Obs.Counters.ledger_add ledger Obs.Counters.Plan_ops (tape_len * n_running);
    let dhaz =
      Array.init n (fun k ->
          word_of_slot inst ~act c.c_dhaz_slots.(k) land run_mask)
    in
    let extw =
      Array.init n (fun k -> if ext_now.(k) then run_mask else 0)
    in
    let spec_words =
      List.map
        (fun (sp, slot) -> (sp, word_of_slot inst ~act slot land run_mask))
        c.c_spec_slots
    in
    let misp = Array.make n 0 in
    List.iter
      (fun ((sp : Fwd_spec.speculation), w) ->
        misp.(sp.Fwd_spec.resolve_stage) <-
          misp.(sp.Fwd_spec.resolve_stage) lor w)
      spec_words;
    let s =
      Stall_engine.compute_lanes ~mask:run_mask ~fullb ~dhaz ~ext:extw
        ~mispredict:misp
    in
    (* ---- divergence mask: lanes leaving the pack's majority ---- *)
    let flag w =
      let wr = w land run_mask in
      if wr <> 0 && wr <> run_mask then
        Hw.Lanes.iter ~mask:(Hw.Lanes.minority ~mask:run_mask w) (fun l ->
            if diverged.(l) < 0 then diverged.(l) <- !cycle)
    in
    for k = 0 to n - 1 do
      flag s.Stall_engine.l_stall.(k);
      flag s.Stall_engine.l_rollback.(k)
    done;
    obs.lob_pre_edge ~cycle:!cycle s ~tags ~running:run_mask;
    (* ---- deepest rollback and firing speculation per lane ---- *)
    Array.fill deep 0 act (-1);
    Array.fill fspec 0 act None;
    Array.fill deepw 0 n 0;
    Array.fill taken 0 n 0;
    for k = 0 to n - 1 do
      let w = s.Stall_engine.l_rollback.(k) in
      if w <> 0 then
        for l = 0 to act - 1 do
          if Hw.Lanes.test w l then deep.(l) <- k
        done
    done;
    for l = 0 to act - 1 do
      if deep.(l) >= 0 then deepw.(deep.(l)) <- Hw.Lanes.set deepw.(deep.(l)) l
    done;
    let fires =
      List.map
        (fun ((sp : Fwd_spec.speculation), w) ->
          let k = sp.Fwd_spec.resolve_stage in
          let f = deepw.(k) land w land lnot taken.(k) in
          taken.(k) <- taken.(k) lor f;
          Hw.Lanes.iter ~mask:f (fun l -> fspec.(l) <- Some sp);
          (sp, f))
        spec_words
    in
    (* ---- clock edge: stage writes then rollback writes ---- *)
    for k = 0 to n - 1 do
      let mask = s.Stall_engine.l_ue.(k) in
      if mask <> 0 then
        Obs.Counters.ledger_add ledger Obs.Counters.Cells_written
          (Machine.Commit.lanes_stage_updates inst ls.lns_state ~mask
             c.c_stages.(k))
    done;
    List.iter
      (fun (sp, f) ->
        if f <> 0 then
          Obs.Counters.ledger_add ledger Obs.Counters.Cells_written
            (Machine.Commit.lanes_writes_updates inst ls.lns_state ~mask:f
               (List.assq sp c.c_rollbacks)))
      fires;
    obs.lob_post_edge ~cycle:!cycle s ~tags ~running:run_mask;
    (* ---- retirements (kept per lane for the sorted callbacks) ---- *)
    let rets : (int * string option) list array = Array.make act [] in
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l then begin
        if Hw.Lanes.test s.Stall_engine.l_ue.(n - 1) l then begin
          let tag = tags.(n - 1).(l) in
          if tag >= 0 then rets.(l) <- (tag, None) :: rets.(l)
          else if not faulty then
            invalid_arg "Pipesem.run_lanes_session: retiring stage lost its tag"
        end;
        (match fspec.(l) with
        | Some sp when sp.Fwd_spec.retires ->
          let tag = tags.(deep.(l)).(l) in
          if tag >= 0 then
            rets.(l) <- (tag, Some sp.Fwd_spec.spec_label) :: rets.(l)
          else if not faulty then
            invalid_arg "Pipesem.run_lanes_session: rollback lost its tag"
        | Some _ | None -> ());
        (* Normal before Via_rollback at equal tags, like the scalar
           [List.sort compare] on retire kinds. *)
        rets.(l) <-
          List.sort
            (fun (t1, k1) (t2, k2) ->
              if t1 <> t2 then compare t1 t2 else compare k1 k2)
            rets.(l)
      end
    done;
    (* ---- squashed (evicted, non-retiring) instructions ---- *)
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l && deep.(l) >= 0 then begin
        rollbacks.(l) <- rollbacks.(l) + 1;
        for j = 0 to deep.(l) do
          let tg = tags.(j).(l) in
          if
            tg >= 0
            && (not (List.exists (fun (t', _) -> t' = tg) rets.(l)))
            && Hw.Lanes.test s.Stall_engine.l_full.(j) l
          then squashed.(l) <- squashed.(l) + 1
        done
      end
    done;
    (* ---- tag shift ---- *)
    for st = 0 to n - 1 do
      Array.blit tags.(st) 0 old_tags.(st) 0 act
    done;
    for st = n - 1 downto 1 do
      let rbup = s.Stall_engine.l_rollback_up.(st) in
      let ue1 = s.Stall_engine.l_ue.(st - 1) in
      let stf = s.Stall_engine.l_stall.(st) land s.Stall_engine.l_full.(st) in
      let cur = tags.(st) in
      let prev = old_tags.(st - 1) in
      let self = old_tags.(st) in
      for l = 0 to act - 1 do
        if Hw.Lanes.test run_mask l then
          cur.(l) <-
            (if Hw.Lanes.test rbup l then -1
             else if Hw.Lanes.test ue1 l then prev.(l)
             else if Hw.Lanes.test stf l then self.(l)
             else -1)
      done
    done;
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l then
        if deep.(l) >= 0 then (
          match fspec.(l) with
          | Some sp ->
            let b = old_tags.(deep.(l)).(l) in
            let base = if b >= 0 then b else 0 in
            tags.(0).(l) <-
              base + (if sp.Fwd_spec.retires then 1 else 0)
          | None -> (* cannot happen; keep the fetch tag *) ())
        else if Hw.Lanes.test s.Stall_engine.l_ue.(0) l then begin
          let b = old_tags.(0).(l) in
          tags.(0).(l) <- (if b >= 0 then b else 0) + 1
        end
    done;
    let fb' = Stall_engine.next_fullb_lanes ~mask:run_mask s in
    Array.blit fb' 0 fullb 0 n;
    (* ---- statistics, retire callbacks, liveness ---- *)
    let stall0 = s.Stall_engine.l_stall.(0) in
    let anyd = Array.fold_left ( lor ) 0 dhaz in
    let any_ext = Array.exists (fun b -> b) ext_now in
    let ue_any = Array.fold_left ( lor ) 0 s.Stall_engine.l_ue in
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l then begin
        if Hw.Lanes.test stall0 l then fetch_stall.(l) <- fetch_stall.(l) + 1;
        if Hw.Lanes.test anyd l then dhaz_c.(l) <- dhaz_c.(l) + 1;
        if any_ext then ext_c.(l) <- ext_c.(l) + 1;
        List.iter
          (fun (tag, rb) ->
            retired.(l) <- retired.(l) + 1;
            obs.lob_retire ~cycle:!cycle ~lane:l ~tag ~rollback:rb)
          rets.(l);
        if rets.(l) <> [] then last_retire.(l) <- !cycle;
        if Hw.Lanes.test ue_any l || rets.(l) <> [] then idle.(l) <- 0
        else idle.(l) <- idle.(l) + 1
      end
    done;
    incr cycle;
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l then
        if retired.(l) >= stop_afters.(l) then deactivate l Completed
        else if idle.(l) > deadlock_window then deactivate l Deadlocked
        else if retirement_gap ~last:last_retire.(l) ~cycle:!cycle > bound
        then deactivate l Out_of_cycles
    done
  done;
  Array.init act (fun l ->
      {
        lr_outcome = out.(l);
        lr_stats =
          {
            cycles = out_cycles.(l);
            retired = retired.(l);
            fetch_stall_cycles = fetch_stall.(l);
            dhaz_cycles = dhaz_c.(l);
            ext_cycles = ext_c.(l);
            rollbacks = rollbacks.(l);
            squashed = squashed.(l);
          };
        lr_divergence = diverged.(l);
      })

let run ?ext ?callbacks ?inject ?cancel ~stop_after t =
  run_compiled ?ext ?callbacks ?inject ?cancel ~stop_after (compile t)

(* ------------------------------------------------------------------ *)
(* Reference engine: the original tree-walking interpreter with its
   per-cycle string-keyed overlay.  Kept as a documented compatibility
   shim: the compiled path is benchmarked and property-checked against
   it (same driver loop, so any divergence is an evaluation bug).      *)
(* ------------------------------------------------------------------ *)

let reference_engine (t : Transform.t) state =
  let m = t.Transform.machine in
  let n = m.Machine.Spec.n_stages in
  let base_env = State.eval_env state in
  let overlay : (string, Hw.Bitvec.t) Hashtbl.t = Hashtbl.create 64 in
  let env =
    {
      Hw.Eval.lookup_input =
        (fun name ->
          match Hashtbl.find_opt overlay name with
          | Some v -> v
          | None -> base_env.Hw.Eval.lookup_input name);
      lookup_file = base_env.Hw.Eval.lookup_file;
    }
  in
  let eng_begin ~cycle:_ ~fullb ~ext_now =
    Hashtbl.reset overlay;
    for k = 0 to n - 1 do
      Hashtbl.replace overlay (Transform.full_signal k)
        (bool_bv (k = 0 || fullb.(k)));
      Hashtbl.replace overlay (Transform.ext_signal k) (bool_bv ext_now.(k))
    done;
    List.iter
      (fun (name, e) -> Hashtbl.replace overlay name (Hw.Eval.eval env e))
      t.Transform.signals
  in
  let eng_lookup name =
    match Hashtbl.find_opt overlay name with
    | Some v -> Some v
    | None -> (
      match Machine.State.get state name with
      | Machine.Value.Scalar v -> Some v
      | Machine.Value.File _ -> None
      | exception Invalid_argument _ -> None)
  in
  {
    eng_begin;
    eng_lookup;
    eng_dhaz =
      (fun k ->
        Hw.Bitvec.to_bool (Hashtbl.find overlay t.Transform.stage_dhaz.(k)));
    eng_mispredict =
      (fun sp -> Hw.Eval.eval_bool env sp.Fwd_spec.mispredict);
    eng_edge =
      (fun ~ue ~firing ->
        (* every update list is evaluated before the first is applied *)
        let stages =
          List.filter (fun k -> ue.(k)) (List.init n Fun.id)
          |> List.map (fun k -> Machine.Commit.stage_updates m ~stage:k ~env state)
        in
        let rollback =
          Option.map
            (fun (sp : Fwd_spec.speculation) ->
              Machine.Commit.writes_updates m
                ~writes:sp.Fwd_spec.rollback_writes ~env state)
            firing
        in
        List.iter (Machine.Commit.apply state) (stages @ Option.to_list rollback));
  }

let run_reference ?ext ?callbacks ?inject ?cancel ~stop_after
    (t : Transform.t) =
  Obs.Span.with_span "pipesem.run_reference" @@ fun () ->
  let state = State.create t.Transform.machine in
  run_loop ~engine:(reference_engine t state) ~state ?ext ?callbacks ?inject
    ?cancel ~stop_after t

let cpi s = if s.retired = 0 then infinity else float_of_int s.cycles /. float_of_int s.retired
