module State = Machine.State
module SE = Stall_engine

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

type lane_result = {
  lr_outcome : outcome;
  lr_stats : stats;
}

let bool_bv b = Hw.Bitvec.of_bool b

(* ------------------------------------------------------------------ *)
(* Fault injection.  The hooks mirror where a physical fault would sit
   in the generated machine: on the full-bit register outputs (feeding
   both the synthesized signals and the stall engine), inside the
   stall engine's input/output wiring, or on a pipeline register right
   at the clock edge (a single-event upset).  They act on the driver's
   control words; an injected run has one lane, so a word is 0 or 1.   *)
(* ------------------------------------------------------------------ *)

type injection = {
  inj_fullb : cycle:int -> int array -> int array;
  inj_compute :
    cycle:int ->
    compute:(dhaz:int array -> SE.lane_signals) ->
    dhaz:int array ->
    SE.lane_signals;
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
(* The cycle driver.  One loop advances a pack of lanes (bit [l] of
   every control word is lane [l]); the engine produces a cycle's
   combinational values and commits its clock edge.  Three engines
   drive it: the N-lane plan engine, and the scalar plan and reference
   tree-walking engines, which run as one-lane packs.  Every decision
   is made per lane in the same order, so a lane of a pack behaves
   exactly like the one-lane run of its program.                       *)
(* ------------------------------------------------------------------ *)

type observer = {
  ob_signals : cycle:int -> (string -> Hw.Bitvec.t option) -> unit;
  ob_cycle :
    cycle:int -> running:int -> SE.lane_signals -> dhaz:int array ->
    ext:int array -> tags:int array array -> unit;
  ob_edge :
    cycle:int -> running:int -> SE.lane_signals -> tags:int array array ->
    unit;
  ob_retire : cycle:int -> lane:int -> tag:int -> kind:retire_kind -> unit;
}

let no_observer =
  {
    ob_signals = (fun ~cycle:_ _ -> ());
    ob_cycle = (fun ~cycle:_ ~running:_ _ ~dhaz:_ ~ext:_ ~tags:_ -> ());
    ob_edge = (fun ~cycle:_ ~running:_ _ ~tags:_ -> ());
    ob_retire = (fun ~cycle:_ ~lane:_ ~tag:_ ~kind:_ -> ());
  }

type engine = {
  eng_state : State.t option;  (* the one-lane engines' state *)
  eng_begin : running:int -> fullb:int array -> ext:int array -> unit;
      (* bind the free inputs and evaluate the cycle's signals *)
  eng_lookup : string -> Hw.Bitvec.t option;  (* ob_signals view *)
  eng_dhaz : int -> int;  (* stage -> hazard word *)
  eng_mispredict : int -> int;  (* speculation index -> mispredict word *)
  eng_edge : ue:int array -> fires:int array -> unit;
      (* the clock edge: the writes of every stage in [ue] and of each
         speculation's rollback in [fires], all evaluated against the
         pre-edge state, committed stages in order, rollbacks last *)
}

let word_any a = Array.fold_left ( lor ) 0 a

let drive (e : engine) ?(ext = fun ~stage:_ ~cycle:_ -> false) ?inject
    ?(obs = no_observer) ?(cancel = Exec.Cancel.never) ~stop_afters
    (t : Transform.t) =
  (* Under injection the control invariants the unfaulted engine
     guarantees (a firing stage holds an instruction) no longer hold;
     the loop degrades to "no tag, no retirement" instead of
     raising. *)
  let faulty = inject <> None in
  let n = t.Transform.machine.Machine.Spec.n_stages in
  let specs = Array.of_list t.Transform.speculations in
  let n_specs = Array.length specs in
  let kinds =
    Array.map
      (fun (sp : Fwd_spec.speculation) -> Via_rollback sp.Fwd_spec.spec_label)
      specs
  in
  let act = Array.length stop_afters in
  let bound = liveness_bound ~n_stages:n in
  let window = deadlock_window ~n_stages:n in
  let fullb = Array.make n 0 in
  let extw = Array.make n 0 in
  let dhaz = Array.make n 0 in
  let misp = Array.make n 0 in
  let misp_spec = Array.make n_specs 0 in
  let fires = Array.make n_specs 0 in
  let deepw = Array.make n 0 in  (* lanes whose deepest rollback is k *)
  let taken = Array.make n 0 in
  let sg = SE.lane_signals ~n_stages:n in
  let tags = Array.init n (fun k -> Array.make act (if k = 0 then 0 else -1)) in
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
  let running = ref (Hw.Lanes.mask_of_count act) in
  let cycle = ref 0 in
  let finish l oc =
    running := Hw.Lanes.clear !running l;
    out.(l) <- oc;
    out_cycles.(l) <- !cycle;
    Obs.Counters.add Obs.Counters.Sim_cycles !cycle;
    Obs.Counters.add Obs.Counters.Sim_retired retired.(l)
  in
  let retire l tag kind =
    retired.(l) <- retired.(l) + 1;
    obs.ob_retire ~cycle:!cycle ~lane:l ~tag ~kind
  in
  let lost_tag what =
    if not faulty then invalid_arg ("Pipesem: " ^ what ^ " lost its tag")
  in
  for l = 0 to act - 1 do
    if stop_afters.(l) <= 0 then finish l Completed
  done;
  while !running <> 0 do
    Exec.Cancel.check cancel;
    let run_mask = !running in
    let cy = !cycle in
    (* Bind the free inputs (full and ext per stage) and evaluate the
       synthesized signals.  A full-bit fault is applied to the
       register outputs, so it feeds the synthesized signals and the
       stall engine alike — the register itself is untouched. *)
    let any_ext = ref false in
    for k = 0 to n - 1 do
      let x = ext ~stage:k ~cycle:cy in
      if x then any_ext := true;
      extw.(k) <- (if x then run_mask else 0)
    done;
    let fb =
      match inject with None -> fullb | Some i -> i.inj_fullb ~cycle:cy fullb
    in
    e.eng_begin ~running:run_mask ~fullb:fb ~ext:extw;
    obs.ob_signals ~cycle:cy e.eng_lookup;
    for k = 0 to n - 1 do
      dhaz.(k) <- e.eng_dhaz k land run_mask;
      misp.(k) <- 0
    done;
    for i = 0 to n_specs - 1 do
      let w = e.eng_mispredict i land run_mask in
      let k = specs.(i).Fwd_spec.resolve_stage in
      misp_spec.(i) <- w;
      misp.(k) <- misp.(k) lor w
    done;
    (* The stall engine, with the injection as middleware: input-wire
       faults perturb [dhaz], control-wire faults rewrite the computed
       signals. *)
    let s =
      match inject with
      | None ->
        SE.compute_lanes sg ~mask:run_mask ~fullb:fb ~dhaz ~ext:extw
          ~mispredict:misp;
        sg
      | Some i ->
        i.inj_compute ~cycle:cy ~dhaz ~compute:(fun ~dhaz ->
            SE.compute_lanes sg ~mask:run_mask ~fullb:fb ~dhaz ~ext:extw
              ~mispredict:misp;
            sg)
    in
    obs.ob_cycle ~cycle:cy ~running:run_mask s ~dhaz ~ext:extw ~tags;
    (* Which speculation fires?  Only the deepest rollback commits its
       corrective writes — the first speculation of that stage that
       mispredicts; everything at or above it is squashed. *)
    let claimed = ref 0 in
    for k = n - 1 downto 0 do
      let w = s.SE.l_rollback.(k) land lnot !claimed in
      deepw.(k) <- w;
      taken.(k) <- 0;
      claimed := !claimed lor w
    done;
    for i = 0 to n_specs - 1 do
      let k = specs.(i).Fwd_spec.resolve_stage in
      let f = deepw.(k) land misp_spec.(i) land lnot taken.(k) in
      taken.(k) <- taken.(k) lor f;
      fires.(i) <- f
    done;
    (* Clock edge.  A transient fault (single-event upset) flips its
       bit right after the edge, so the consistency checker observes
       the corrupted state exactly as downstream hardware would. *)
    e.eng_edge ~ue:s.SE.l_ue ~fires;
    (match (inject, e.eng_state) with
    | Some i, Some st -> i.inj_edge ~cycle:cy st
    | _ -> ());
    obs.ob_edge ~cycle:cy ~running:run_mask s ~tags;
    let ue_last = s.SE.l_ue.(n - 1) in
    let stall0 = s.SE.l_stall.(0) in
    let anyd = word_any dhaz in
    let ue_any = word_any s.SE.l_ue in
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l then begin
        let d = ref (-1) in
        for k = 0 to n - 1 do
          if Hw.Lanes.test deepw.(k) l then d := k
        done;
        let d = !d in
        let fi = ref (-1) in
        for i = n_specs - 1 downto 0 do
          if Hw.Lanes.test fires.(i) l then fi := i
        done;
        let fi = !fi in
        (* Retirements and evictions, on the pre-edge tags. *)
        let rn =
          if Hw.Lanes.test ue_last l then begin
            let tag = tags.(n - 1).(l) in
            if tag < 0 then lost_tag "retiring stage";
            tag
          end
          else -1
        in
        let rr =
          if fi >= 0 && specs.(fi).Fwd_spec.retires then begin
            let tag = tags.(d).(l) in
            if tag < 0 then lost_tag "rollback";
            tag
          end
          else -1
        in
        if d >= 0 then begin
          rollbacks.(l) <- rollbacks.(l) + 1;
          for j = 0 to d do
            let tg = tags.(j).(l) in
            if tg >= 0 && tg <> rn && tg <> rr && Hw.Lanes.test s.SE.l_full.(j) l
            then squashed.(l) <- squashed.(l) + 1
          done
        end;
        (* Tag shift, deepest stage first so each stage reads its
           predecessor's pre-edge tag; the fetch tag follows the firing
           rollback (restart after the rolled-back instruction) or
           ue_0. *)
        let old0 = tags.(0).(l) in
        let tag0 =
          if d >= 0 then
            if fi >= 0 then
              let b = tags.(d).(l) in
              (if b >= 0 then b else 0)
              + if specs.(fi).Fwd_spec.retires then 1 else 0
            else old0
          else if Hw.Lanes.test s.SE.l_ue.(0) l then
            (if old0 >= 0 then old0 else 0) + 1
          else old0
        in
        for st = n - 1 downto 1 do
          tags.(st).(l) <-
            (if Hw.Lanes.test s.SE.l_rollback_up.(st) l then -1
             else if Hw.Lanes.test s.SE.l_ue.(st - 1) l then tags.(st - 1).(l)
             else if
               Hw.Lanes.test s.SE.l_stall.(st) l
               && Hw.Lanes.test s.SE.l_full.(st) l
             then tags.(st).(l)
             else -1)
        done;
        tags.(0).(l) <- tag0;
        (* Statistics, retirements in (tag, kind) order, liveness. *)
        if Hw.Lanes.test stall0 l then fetch_stall.(l) <- fetch_stall.(l) + 1;
        if Hw.Lanes.test anyd l then dhaz_c.(l) <- dhaz_c.(l) + 1;
        if !any_ext then ext_c.(l) <- ext_c.(l) + 1;
        if rr >= 0 && rn >= 0 && rr < rn then retire l rr kinds.(fi);
        if rn >= 0 then retire l rn Normal;
        if rr >= 0 && not (rn >= 0 && rr < rn) then retire l rr kinds.(fi);
        if rn >= 0 || rr >= 0 then begin
          last_retire.(l) <- cy;
          idle.(l) <- 0
        end
        else if Hw.Lanes.test ue_any l then idle.(l) <- 0
        else idle.(l) <- idle.(l) + 1
      end
    done;
    SE.next_fullb_lanes ~mask:run_mask s fullb;
    incr cycle;
    for l = 0 to act - 1 do
      if Hw.Lanes.test run_mask l then
        if retired.(l) >= stop_afters.(l) then finish l Completed
        else if idle.(l) > window then finish l Deadlocked
        else if retirement_gap ~last:last_retire.(l) ~cycle:!cycle > bound then
          finish l Out_of_cycles
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
      })

(* The one-lane view the [callbacks] interface gives: lane 0's control
   bits and tags as a cycle record. *)
let observer_of_callbacks cb state =
  let bools w = Array.map (fun x -> x land 1 <> 0) w in
  let record = ref None in
  {
    ob_signals = cb.on_signals;
    ob_cycle =
      (fun ~cycle ~running:_ (s : SE.lane_signals) ~dhaz ~ext ~tags ->
        let r =
          {
            cycle;
            full = bools s.SE.l_full;
            stall = bools s.SE.l_stall;
            dhaz = bools dhaz;
            ext = bools ext;
            rollback = bools s.SE.l_rollback;
            ue = bools s.SE.l_ue;
            tags =
              Array.map
                (fun row -> if row.(0) < 0 then None else Some row.(0))
                tags;
          }
        in
        record := Some r;
        cb.on_cycle r);
    ob_edge =
      (fun ~cycle:_ ~running:_ _ ~tags:_ ->
        Option.iter (fun r -> cb.on_edge r state) !record);
    ob_retire =
      (fun ~cycle:_ ~lane:_ ~tag ~kind -> cb.on_retire ~tag ~kind state);
  }

let record_words (r : cycle_record) =
  let words a = Array.map (fun b -> if b then 1 else 0) a in
  let n = Array.length r.full in
  let rollback = words r.rollback in
  let rollback_up = Array.make n 0 in
  for k = n - 1 downto 0 do
    rollback_up.(k) <-
      rollback.(k) lor (if k = n - 1 then 0 else rollback_up.(k + 1))
  done;
  ( {
      SE.l_full = words r.full;
      l_stall = words r.stall;
      l_rollback = rollback;
      l_rollback_up = rollback_up;
      l_ue = words r.ue;
    },
    Array.map (fun t -> [| Option.value ~default:(-1) t |]) r.tags )

let state_lookup state name =
  match Machine.State.get state name with
  | Machine.Value.Scalar v -> Some v
  | Machine.Value.File _ -> None
  | exception Invalid_argument _ -> None

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
  c_spec_slots : int array;  (* per speculation, in declaration order *)
  c_stages : Machine.Commit.cstage array;
  c_rollbacks : Machine.Commit.cwrite list array;  (* per speculation *)
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
  let specs = Array.of_list t.Transform.speculations in
  let c_spec_slots =
    Array.map
      (fun (sp : Fwd_spec.speculation) -> Hw.Plan.root b sp.Fwd_spec.mispredict)
      specs
  in
  let c_stages =
    Array.init n (fun k -> Machine.Commit.compile_stage m b ~stage:k)
  in
  let c_rollbacks =
    Array.map
      (fun (sp : Fwd_spec.speculation) ->
        Machine.Commit.compile_writes m b sp.Fwd_spec.rollback_writes)
      specs
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
   resets read [t]'s init; speculations are addressed by position, so
   the slot tables carry over as they are.  The structural guard is
   deliberately cheap: name-level equality catches shape drift without
   re-walking expression trees (transforms of one machine builder are
   expression-identical by construction). *)
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
  { c with c_tr = t }

(* The scalar plan engine: one lane, its words 0 or 1.  [eng_begin]
   runs the whole tape, so every commit value, guard and address is
   computed against the pre-edge state before the first commit writes
   it. *)
let plan_engine c state =
  let bound =
    State.bind_plan ~extern:(Hashtbl.mem c.c_free) state c.c_plan
  in
  let inst = State.bound_instance bound in
  let n = Array.length c.c_full_slots in
  let stages = Array.map (Machine.Commit.resolve_stage state) c.c_stages in
  let rollbacks = Array.map (Machine.Commit.resolve_writes state) c.c_rollbacks in
  let bit slot = if Hw.Plan.get_bool inst slot then 1 else 0 in
  {
    eng_state = Some state;
    eng_begin =
      (fun ~running:_ ~fullb ~ext ->
        State.load bound;
        for k = 0 to n - 1 do
          Hw.Plan.set inst c.c_full_slots.(k)
            (bool_bv (k = 0 || fullb.(k) land 1 <> 0));
          Hw.Plan.set inst c.c_ext_slots.(k) (bool_bv (ext.(k) land 1 <> 0))
        done;
        Hw.Plan.run inst);
    eng_lookup =
      (fun name ->
        match Hw.Plan.read_name inst name with
        | Some v -> Some v
        | None -> state_lookup state name);
    eng_dhaz = (fun k -> bit c.c_dhaz_slots.(k));
    eng_mispredict = (fun i -> bit c.c_spec_slots.(i));
    eng_edge =
      (fun ~ue ~fires ->
        for k = 0 to n - 1 do
          if ue.(k) land 1 <> 0 then Machine.Commit.commit inst stages.(k)
        done;
        for i = 0 to Array.length fires - 1 do
          if fires.(i) land 1 <> 0 then Machine.Commit.commit inst rollbacks.(i)
        done);
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

let session_state s = s.s_state

let run_observed ?ext ?inject ?cancel ?init ?obs ~stop_after s =
  Obs.Span.with_span "pipesem.run" @@ fun () ->
  (* The reset also repairs state left dirty by a cancelled, faulted
     or raising previous run on this session. *)
  State.reset ?init s.s_c.c_tr.Transform.machine s.s_state;
  (drive s.s_engine ?ext ?inject ?obs ?cancel ~stop_afters:[| stop_after |]
     s.s_c.c_tr).(0)

let result_of state r = { outcome = r.lr_outcome; stats = r.lr_stats; state }

let run_session ?ext ?callbacks ?inject ?cancel ?init ~stop_after s =
  let obs = Option.map (fun cb -> observer_of_callbacks cb s.s_state) callbacks in
  result_of s.s_state
    (run_observed ?ext ?inject ?cancel ?init ?obs ~stop_after s)

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

let run ?ext ?callbacks ?inject ?cancel ~stop_after t =
  run_compiled ?ext ?callbacks ?inject ?cancel ~stop_after (compile t)

(* ------------------------------------------------------------------ *)
(* Lane packs: the plan evaluated as a {!Hw.Plan.lanes} instance over
   the SoA lane state, up to {!Hw.Lanes.max_lanes} programs per run.
   The pack accounts the work solo runs of its lanes would: one tape
   run per cycle of every running lane, and the scalar-equivalent
   cells written.                                                      *)
(* ------------------------------------------------------------------ *)

(* get_bool on a wide slot is a nonzero test; mirror that when
   lifting a slot to a packed word. *)
let word_of_slot inst s =
  if Hw.Plan.lanes_is_bool inst s then Hw.Plan.lanes_word inst s
  else begin
    let v = Hw.Plan.lanes_ints inst s in
    let w = ref 0 in
    for l = 0 to Hw.Plan.lanes_active inst - 1 do
      if v.(l) <> 0 then w := !w lor (1 lsl l)
    done;
    !w
  end

let pack_engine c st inst bound =
  let n = Array.length c.c_full_slots in
  let tape_len = Hw.Plan.n_instrs c.c_plan in
  let cells w = Obs.Counters.add Obs.Counters.Cells_written w in
  {
    eng_state = None;
    eng_begin =
      (fun ~running ~fullb ~ext ->
        State.load_lanes bound;
        for k = 0 to n - 1 do
          Hw.Plan.lanes_set_word inst c.c_full_slots.(k)
            (if k = 0 then running else fullb.(k));
          Hw.Plan.lanes_set_word inst c.c_ext_slots.(k) ext.(k)
        done;
        Hw.Plan.run_lanes inst;
        let r = Hw.Lanes.popcount running in
        Obs.Counters.add Obs.Counters.Plan_runs r;
        Obs.Counters.add Obs.Counters.Plan_ops (tape_len * r));
    eng_lookup = (fun _ -> None);
    eng_dhaz = (fun k -> word_of_slot inst c.c_dhaz_slots.(k));
    eng_mispredict = (fun i -> word_of_slot inst c.c_spec_slots.(i));
    eng_edge =
      (fun ~ue ~fires ->
        for k = 0 to n - 1 do
          if ue.(k) <> 0 then
            cells
              (Machine.Commit.lanes_stage_updates inst st ~mask:ue.(k)
                 c.c_stages.(k))
        done;
        for i = 0 to Array.length fires - 1 do
          if fires.(i) <> 0 then
            cells
              (Machine.Commit.lanes_writes_updates inst st ~mask:fires.(i)
                 c.c_rollbacks.(i))
        done);
  }

type pack = {
  p_c : compiled;
  p_state : State.lanes;
  p_inst : Hw.Plan.lanes;
  p_engine : engine;
}

let pack c =
  Obs.Counters.bump Obs.Counters.Sessions;
  let state = State.create_lanes c.c_tr.Transform.machine in
  let inst = Hw.Plan.lanes c.c_plan in
  let bound = State.bind_lanes ~extern:(Hashtbl.mem c.c_free) state inst in
  {
    p_c = c;
    p_state = state;
    p_inst = inst;
    p_engine = pack_engine c state inst bound;
  }

let pack_state p = p.p_state

let run_pack ?ext ?cancel ?obs ~inits ~stop_afters p =
  Obs.Span.with_span "pipesem.run_lanes" @@ fun () ->
  let act = Array.length inits in
  if Array.length stop_afters <> act then
    invalid_arg "Pipesem.run_pack: inits/stop_afters length mismatch";
  State.reset_lanes ~inits p.p_state;
  Hw.Plan.lanes_set_active p.p_inst act;
  drive p.p_engine ?ext ?obs ?cancel ~stop_afters p.p_c.c_tr

(* ------------------------------------------------------------------ *)
(* Reference engine: the original tree-walking interpreter with its
   per-cycle string-keyed overlay, a one-lane engine like the scalar
   plan engine.  The compiled path is benchmarked and property-checked
   against it (same driver, so any divergence is an evaluation bug).   *)
(* ------------------------------------------------------------------ *)

let reference_engine (t : Transform.t) state =
  let m = t.Transform.machine in
  let n = m.Machine.Spec.n_stages in
  let specs = Array.of_list t.Transform.speculations in
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
  let bit b = if b then 1 else 0 in
  {
    eng_state = Some state;
    eng_begin =
      (fun ~running:_ ~fullb ~ext ->
        Hashtbl.reset overlay;
        for k = 0 to n - 1 do
          Hashtbl.replace overlay (Transform.full_signal k)
            (bool_bv (k = 0 || fullb.(k) land 1 <> 0));
          Hashtbl.replace overlay (Transform.ext_signal k)
            (bool_bv (ext.(k) land 1 <> 0))
        done;
        List.iter
          (fun (name, e) -> Hashtbl.replace overlay name (Hw.Eval.eval env e))
          t.Transform.signals);
    eng_lookup =
      (fun name ->
        match Hashtbl.find_opt overlay name with
        | Some v -> Some v
        | None -> state_lookup state name);
    eng_dhaz =
      (fun k ->
        bit (Hw.Bitvec.to_bool (Hashtbl.find overlay t.Transform.stage_dhaz.(k))));
    eng_mispredict =
      (fun i -> bit (Hw.Eval.eval_bool env specs.(i).Fwd_spec.mispredict));
    eng_edge =
      (fun ~ue ~fires ->
        (* every update list is evaluated before the first is applied *)
        let stages =
          List.filter (fun k -> ue.(k) land 1 <> 0) (List.init n Fun.id)
          |> List.map (fun k -> Machine.Commit.stage_updates m ~stage:k ~env state)
        in
        let rollbacks =
          List.filter_map
            (fun i ->
              if fires.(i) land 1 = 0 then None
              else
                Some
                  (Machine.Commit.writes_updates m
                     ~writes:specs.(i).Fwd_spec.rollback_writes ~env state))
            (List.init (Array.length specs) Fun.id)
        in
        List.iter (Machine.Commit.apply state) (stages @ rollbacks));
  }

let run_reference ?ext ?callbacks ?inject ?cancel ~stop_after
    (t : Transform.t) =
  Obs.Span.with_span "pipesem.run_reference" @@ fun () ->
  let state = State.create t.Transform.machine in
  let obs = Option.map (fun cb -> observer_of_callbacks cb state) callbacks in
  result_of state
    (drive (reference_engine t state) ?ext ?inject ?obs ?cancel
       ~stop_afters:[| stop_after |] t).(0)

let cpi s = if s.retired = 0 then infinity else float_of_int s.cycles /. float_of_int s.retired
