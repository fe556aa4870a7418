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

module Seqsem = Machine.Seqsem
module Value = Machine.Value

(* How the checker reads one visible register of the pipelined run,
   per lane, resolved once per run: raw contents compared in place
   ([s_equal]/[f_equal] take the lane, then for a file the entry, then
   the reference's width and raw value), a file's write log, and the
   whole value, built only for a violation's text. *)
type scalar_reader = {
  s_equal : int -> int -> int -> bool;
  s_value : int -> Value.t;
}

type file_reader = {
  f_equal : int -> int -> int -> int -> bool;
  f_size : int -> int;
  f_log : int -> int array;
  f_log_length : int -> int;
  f_replaced : int -> bool;
  f_value : int -> Value.t;
}

type reader = Scalar_reader of scalar_reader | File_reader of file_reader

(* A one-lane run's register: its state cell, compared like
   [Value.equal] (widths included). *)
let state_reader state (r : Spec.register) =
  let c = State.cell state r.Spec.reg_name in
  let value _ = State.cell_value c in
  match r.Spec.kind with
  | Spec.Simple ->
    Scalar_reader
      {
        s_equal =
          (fun _ w raw ->
            match State.cell_value c with
            | Value.Scalar bv ->
              Hw.Bitvec.width bv = w && Hw.Bitvec.to_int bv = raw
            | Value.File _ -> false);
        s_value = value;
      }
  | Spec.File _ ->
    File_reader
      {
        f_equal =
          (fun _ e w raw ->
            match State.cell_value c with
            | Value.File a ->
              e < Array.length a
              &&
              let bv = Array.unsafe_get a e in
              Hw.Bitvec.width bv = w && Hw.Bitvec.to_int bv = raw
            | Value.Scalar _ -> false);
        f_size =
          (fun _ ->
            match State.cell_value c with
            | Value.File a -> Array.length a
            | Value.Scalar _ -> -1);
        f_log = (fun _ -> State.cell_log c);
        f_log_length = (fun _ -> State.cell_log_length c);
        f_replaced = (fun _ -> State.cell_replaced c);
        f_value = value;
      }

(* A pack's register, the lane twin: raw lane values, compared as
   integers (a lane cell's width is fixed). *)
let lanes_reader st (r : Spec.register) =
  let cell = State.lanes_cell st r.Spec.reg_name in
  let w = cell.State.lc_width in
  match cell.State.lc_value with
  | State.Lbool b ->
    Scalar_reader
      {
        s_equal = (fun lane _ raw -> Hw.Lanes.test b.State.word lane = (raw <> 0));
        s_value =
          (fun lane ->
            Value.Scalar
              (Hw.Bitvec.make ~width:1
                 (if Hw.Lanes.test b.State.word lane then 1 else 0)));
      }
  | State.Lints a ->
    Scalar_reader
      {
        s_equal = (fun lane _ raw -> a.(lane) = raw);
        s_value = (fun lane -> Value.Scalar (Hw.Bitvec.make ~width:w a.(lane)));
      }
  | State.Lfile rows ->
    File_reader
      {
        f_equal =
          (fun lane e _ raw ->
            let g = rows.(lane) in
            e < Array.length g && Array.unsafe_get g e = raw);
        f_size = (fun lane -> Array.length rows.(lane));
        f_log = (fun lane -> State.lane_log_entries cell.State.lc_logs.(lane));
        f_log_length =
          (fun lane -> State.lane_log_length cell.State.lc_logs.(lane));
        f_replaced = (fun _ -> false);
        f_value =
          (fun lane -> Value.File (Array.map (Hw.Bitvec.make ~width:w) rows.(lane)));
      }

(* One lane's comparison of a register file against its trace column,
   kept up to date from one comparison to the next.  Both sides start
   from their starting contents, compared once per run; if these differ
   ([fk_full]), or a whole value was stored to the register, every
   comparison scans the file.  Otherwise the check holds the entries
   where the run differs from R_S^[fk_at] ([fk_bad], [fk_nbad] of them),
   and a comparison at boundary [t] re-examines only the entries that
   can have changed since: those the run wrote past [fk_cursor] in its
   write log, and those the trace writes between R_S^[fk_at] and
   R_S^t.  Every other entry is as it was on both sides. *)
type file_check = {
  fk : Seqsem.file_column;
  fk_reader : file_reader;
  fk_full : bool;
  mutable fk_cursor : int;
  mutable fk_at : int;
  mutable fk_bad : Bytes.t;  (* one bit per entry; empty while none differs *)
  mutable fk_nbad : int;
}

type check =
  | Absent  (* the trace holds no such register: counted, not compared *)
  | Kind_mismatch of Seqsem.column  (* a file against a scalar: unequal *)
  | Scalar_check of int array * int * scalar_reader  (* values, width *)
  | File_check of file_check

(* The starting contents against the trace's start: the value the
   run's reset filled the register from ([State.initial]; [None] is a
   zero file of the register's shape). *)
let starts_equal (r : Spec.register) start (fc : Seqsem.file_column) =
  let s = fc.Seqsem.fc_start in
  match start with
  | Some (Value.File a) -> a == s || Value.equal (Value.File a) (Value.File s)
  | Some (Value.Scalar _) -> false
  | None -> (
    match r.Spec.kind with
    | Spec.File { addr_bits } ->
      Array.length s = 1 lsl addr_bits
      && Array.for_all
           (fun bv -> Hw.Bitvec.width bv = r.Spec.width && Hw.Bitvec.to_int bv = 0)
           s
    | Spec.Simple -> false)

let file_check r rd start fc =
  {
    fk = fc;
    fk_reader = rd;
    fk_full = not (starts_equal r start fc);
    fk_cursor = 0;
    fk_at = 0;
    fk_bad = Bytes.empty;
    fk_nbad = 0;
  }

(* Entry [e] against its value in R_S^t. *)
let entry_equal rd lane (fc : Seqsem.file_column) e t =
  let d = Seqsem.find_written fc e in
  if d >= 0 && Seqsem.written_before fc d t then
    rd.f_equal lane e fc.Seqsem.fc_width (Seqsem.entry_before fc d t)
  else
    let bv = fc.Seqsem.fc_start.(e) in
    rd.f_equal lane e (Hw.Bitvec.width bv) (Hw.Bitvec.to_int bv)

let is_bad k e =
  Bytes.length k.fk_bad > 0
  && Char.code (Bytes.unsafe_get k.fk_bad (e lsr 3)) land (1 lsl (e land 7)) <> 0

let flip_bad k e =
  if Bytes.length k.fk_bad = 0 then
    k.fk_bad <- Bytes.make ((Array.length k.fk.Seqsem.fc_start + 7) / 8) '\000';
  let b = Char.code (Bytes.unsafe_get k.fk_bad (e lsr 3)) in
  Bytes.unsafe_set k.fk_bad (e lsr 3) (Char.unsafe_chr (b lxor (1 lsl (e land 7))))

let recheck k lane t e =
  let same = entry_equal k.fk_reader lane k.fk e t in
  if same = is_bad k e then begin
    flip_bad k e;
    k.fk_nbad <- (if same then k.fk_nbad - 1 else k.fk_nbad + 1)
  end

(* Does the lane's file equal the trace's at boundary [t]?  Adds the
   entries examined to [count]: the run's writes and the trace's since
   the previous comparison — the whole file in a full comparison. *)
let file_equal ~count k lane t =
  let fc = k.fk and rd = k.fk_reader in
  if k.fk_full || rd.f_replaced lane then begin
    let size = Array.length fc.Seqsem.fc_start in
    count := !count + size;
    rd.f_size lane = size
    &&
    let rec go e = e >= size || (entry_equal rd lane fc e t && go (e + 1)) in
    go 0
  end
  else begin
    let len = rd.f_log_length lane and log = rd.f_log lane in
    for j = k.fk_cursor to len - 1 do
      recheck k lane t log.(j)
    done;
    let bounds = fc.Seqsem.fc_bounds in
    let lo = bounds.(min k.fk_at t) and hi = bounds.(max k.fk_at t) in
    for p = lo to hi - 1 do
      recheck k lane t fc.Seqsem.fc_entries.(p)
    done;
    count := !count + (len - k.fk_cursor) + (hi - lo);
    k.fk_cursor <- len;
    k.fk_at <- t;
    k.fk_nbad = 0
  end

let check_equal ~count lane t = function
  | Absent -> true
  | Kind_mismatch _ -> false
  | Scalar_check (values, width, rd) ->
    incr count;
    rd.s_equal lane width values.(t)
  | File_check k -> file_equal ~count k lane t

let expected_value c t =
  match c with
  | Absent -> assert false
  | Kind_mismatch col -> Seqsem.column_value col t
  | Scalar_check (values, width, _) ->
    Value.Scalar (Hw.Bitvec.make ~width values.(t))
  | File_check k -> Seqsem.column_value (Seqsem.File_column k.fk) t

let got_value rd lane =
  match rd with
  | Scalar_reader s -> s.s_value lane
  | File_reader f -> f.f_value lane

(* One lane's co-simulation state. *)
type lane = {
  ln_instructions : int;
  ln_checks : check array;  (* per visible register, in spec order *)
  ln_entries : int ref;
  mutable ln_pending : violation list;  (* newest first *)
  mutable ln_edge_checks : int;
  mutable ln_rolled_back : bool;
  ln_row : int array;  (* I(k, T) *)
  ln_l1 : Evidence.sink;
  ln_se : Evidence.sink;
  ln_gaps : Liveness.gaps;
}

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

   Each visible register is resolved once per run: a [reader] for the
   pipelined side, and per lane the position of its trace column.
   [start l name] is what the run's reset filled lane [l]'s register
   from ({!State.initial}).  [run] drives the pipelined machine with
   the checker's observer: a one-lane session or a pack. *)
let check_core ~(refs : Seqsem.trace array) ~reader ~start ~run
    (t : Pipeline.Transform.t) =
  let base = t.Pipeline.Transform.base in
  let n = base.Spec.n_stages in
  let act = Array.length refs in
  let visible =
    Array.of_list
      (List.map (fun (r : Spec.register) -> (r, reader r)) (Spec.visible_registers base))
  in
  let all = Array.init (Array.length visible) Fun.id in
  let of_stage =
    Array.init n (fun k ->
        Array.of_list
          (List.filter
             (fun i -> (fst visible.(i)).Spec.stage = k)
             (Array.to_list all)))
  in
  (* Column positions, resolved once per register-order array (traces
     of one [Seq_dlx.ref_trace] variant, or of one [Seqsem] session,
     share theirs). *)
  let positions = ref ([||], [||]) in
  let position_of (tr : Seqsem.trace) =
    let names, pos = !positions in
    if names == tr.Seqsem.registers then pos
    else begin
      let find name =
        let rec go j =
          if j = Array.length tr.Seqsem.registers then -1
          else if String.equal tr.Seqsem.registers.(j) name then j
          else go (j + 1)
        in
        go 0
      in
      let pos =
        Array.map (fun ((r : Spec.register), _) -> find r.Spec.reg_name) visible
      in
      positions := (tr.Seqsem.registers, pos);
      pos
    end
  in
  let lanes =
    Array.mapi
      (fun l (tr : Seqsem.trace) ->
        let pos = position_of tr in
        let checks =
          Array.mapi
            (fun i ((r : Spec.register), rd) ->
              if pos.(i) < 0 then Absent
              else
                let col = tr.Seqsem.columns.(pos.(i)) in
                match (col, rd) with
                | Seqsem.Scalar_column { sc_width; sc_values }, Scalar_reader s ->
                  Scalar_check (sc_values, sc_width, s)
                | Seqsem.File_column fc, File_reader f ->
                  File_check (file_check r f (start l r.Spec.reg_name) fc)
                | _ -> Kind_mismatch col)
            visible
        in
        {
          ln_instructions = tr.Seqsem.instructions;
          ln_checks = checks;
          ln_entries = ref 0;
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
  let compare_regs ln ~lane ~cycle ~stage ~tag ~t regs =
    for j = 0 to Array.length regs - 1 do
      let i = regs.(j) in
      ln.ln_edge_checks <- ln.ln_edge_checks + 1;
      let c = ln.ln_checks.(i) in
      if not (check_equal ~count:ln.ln_entries lane t c) then
        ln.ln_pending <-
          {
            at_cycle = cycle;
            at_stage = stage;
            tag;
            register = (fst visible.(i)).Spec.reg_name;
            expected = Format.asprintf "%a" Value.pp (expected_value c t);
            got = Format.asprintf "%a" Value.pp (got_value (snd visible.(i)) lane);
          }
          :: ln.ln_pending
    done
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
              compare_regs ln ~lane:l ~cycle ~stage:k ~tag:i ~t:(i + 1)
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
      compare_regs ln ~lane ~cycle:(-1) ~stage:(-1) ~tag ~t:(tag + 1) all
    | Pipesem.Normal | Pipesem.Via_rollback _ -> ()
  in
  let obs = { Pipesem.no_observer with Pipesem.ob_cycle; ob_edge; ob_retire } in
  let results =
    run ~obs ~stop_afters:(Array.map (fun ln -> ln.ln_instructions) lanes)
  in
  let reports =
    Array.mapi
      (fun l (r : Pipesem.lane_result) ->
        let ln = lanes.(l) in
        let final_visible_match =
          if ln.ln_rolled_back || r.Pipesem.lr_outcome <> Pipesem.Completed then None
          else
            (* Registers of the last stage see no over-fetch interference. *)
            Some
              (Array.fold_left
                 (fun ok i ->
                   check_equal ~count:ln.ln_entries l ln.ln_instructions
                     ln.ln_checks.(i)
                   && ok)
                 true of_stage.(n - 1))
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
  in
  Obs.Counters.add Obs.Counters.Entries_compared
    (Array.fold_left (fun acc ln -> acc + !(ln.ln_entries)) 0 lanes);
  reports

(* A one-lane check: the session's own state is what the checker
   reads; its reset fills each register from [init], then from the
   compiled machine's own [init]. *)
let check_session ?ext ?inject ?cancel ?init ~seq_trace c s t =
  let state = Pipesem.session_state s in
  let m = (Pipesem.transform c).Pipeline.Transform.machine in
  (check_core ~refs:[| seq_trace |] ~reader:(state_reader state)
     ~start:(fun _ name -> State.initial ?init m name)
     t
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
  check_session ?ext ?inject ?cancel ~seq_trace c (Pipesem.session c) t

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
  check_session ?ext ?inject ?cancel ?init ~seq_trace s.sh_pipe
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
    (check_core ~refs:references ~reader:(lanes_reader st)
       ~start:(fun l name -> State.initial ~init:inits.(l) (State.lanes_spec st) name)
       s.sh_tr
       ~run:(fun ~obs ~stop_afters ->
         Pipesem.run_pack ?ext ?cancel ~obs ~inits ~stop_afters pack))
