type file_column = {
  fc_width : int;
  fc_start : Hw.Bitvec.t array;
  fc_bounds : int array;
  fc_entries : int array;
  fc_values : int array;
  fc_written : int array;
  fc_groups : int array;
  fc_writes : int array;
}

type column =
  | Scalar_column of { sc_width : int; sc_values : int array }
  | File_column of file_column

type trace = {
  registers : string array;
  columns : column array;
  instructions : int;
  halted : bool;
}

(* The writes grouped by entry, without a file-sized mark array: sort
   them by (entry, position) — one int key each — and cut the groups. *)
let file_column ~width ~start ~bounds ~entries ~values =
  let n = Array.length entries in
  let keys = Array.init n (fun p -> (entries.(p) * n) + p) in
  Array.sort Int.compare keys;
  let writes = Array.map (fun k -> k mod n) keys in
  let written = ref [] and groups = ref [] in
  Array.iteri
    (fun j k ->
      let e = k / n in
      match !written with
      | e' :: _ when e' = e -> ()
      | _ ->
        written := e :: !written;
        groups := j :: !groups)
    keys;
  {
    fc_width = width;
    fc_start = start;
    fc_bounds = bounds;
    fc_entries = entries;
    fc_values = values;
    fc_written = Array.of_list (List.rev !written);
    fc_groups = Array.of_list (List.rev (n :: !groups));
    fc_writes = writes;
  }

(* Binary searches as top-level functions taking every bound as an
   argument: a local [let rec] closing over them would allocate a
   closure per comparison. *)
let rec search_entry written e lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get written mid in
    if m = e then mid
    else if m < e then search_entry written e (mid + 1) hi
    else search_entry written e lo mid

let find_written fc e = search_entry fc.fc_written e 0 (Array.length fc.fc_written)

let written_before fc d i = fc.fc_writes.(fc.fc_groups.(d)) < fc.fc_bounds.(i)

(* The first index in [lo, hi) of the ascending [writes] at or above
   [bound]. *)
let rec lower_bound writes bound lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get writes mid < bound then lower_bound writes bound (mid + 1) hi
    else lower_bound writes bound lo mid

(* The last write of entry [d] below [fc_bounds.(i)], by binary search
   in its group (positions ascending); the start when there is none. *)
let entry_before fc d i =
  let first = fc.fc_groups.(d) in
  let j = lower_bound fc.fc_writes fc.fc_bounds.(i) first fc.fc_groups.(d + 1) in
  if j = first then Hw.Bitvec.to_int fc.fc_start.(fc.fc_written.(d))
  else fc.fc_values.(fc.fc_writes.(j - 1))

let column_value col i =
  match col with
  | Scalar_column { sc_width; sc_values } ->
    Value.Scalar (Hw.Bitvec.make ~width:sc_width sc_values.(i))
  | File_column fc ->
    let a = Array.copy fc.fc_start in
    for p = 0 to fc.fc_bounds.(i) - 1 do
      a.(fc.fc_entries.(p)) <- Hw.Bitvec.make ~width:fc.fc_width fc.fc_values.(p)
    done;
    Value.File a

let column_of t name =
  let rec find j =
    if j = Array.length t.registers then None
    else if String.equal t.registers.(j) name then Some t.columns.(j)
    else find (j + 1)
  in
  find 0

let value_before t name i =
  Option.map (fun c -> column_value c i) (column_of t name)

let state_before t i =
  Array.to_list
    (Array.mapi (fun j name -> (name, column_value t.columns.(j) i)) t.registers)

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
   contents.  [ss_visible] is the trace's register order, resolved. *)
type session = {
  ss_cm : compiled;
  ss_state : State.t;
  ss_stages : (State.bound * Commit.resolved) array;
  ss_names : string array;
  ss_visible : (Spec.register * State.cell) array;
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
  let visible =
    Spec.visible_registers cm.cm_spec
    |> List.sort (fun (a : Spec.register) b ->
           String.compare a.reg_name b.reg_name)
    |> List.map (fun (r : Spec.register) -> (r, State.cell state r.reg_name))
    |> Array.of_list
  in
  {
    ss_cm = cm;
    ss_state = state;
    ss_stages = stages;
    ss_names = Array.map (fun ((r : Spec.register), _) -> r.reg_name) visible;
    ss_visible = visible;
  }

(* A growable int array. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 16 0; n = 0 }

let add b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Array.unsafe_set b.a b.n v;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* One visible register's column under construction.  A file's log is
   drained at every instruction boundary, so each write lands in the
   instruction that made it; a file whose whole value was replaced
   (never, on a machine's own commits) logs every entry instead. *)
type col_buf =
  | Scalar_buf of buf
  | File_buf of {
      fb_start : Hw.Bitvec.t array;
      fb_bounds : buf;
      fb_entries : buf;
      fb_values : buf;
    }

let raw_scalar (r : Spec.register) c =
  match State.cell_value c with
  | Value.Scalar bv -> Hw.Bitvec.to_int bv
  | Value.File _ ->
    invalid_arg ("Seqsem: visible register " ^ r.reg_name ^ " holds a file")

let file_entries (r : Spec.register) c =
  match State.cell_value c with
  | Value.File a -> a
  | Value.Scalar _ ->
    invalid_arg ("Seqsem: visible register " ^ r.reg_name ^ " holds a scalar")

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
  let words = ref 0 in
  let cols =
    Array.map
      (fun ((r : Spec.register), c) ->
        match r.kind with
        | Spec.Simple -> Scalar_buf (buf ())
        | Spec.File _ ->
          let start =
            match State.cell_snapshot c with
            | Value.File a -> a
            | Value.Scalar _ -> file_entries r c
          in
          if start != file_entries r c then words := !words + Array.length start;
          File_buf
            {
              fb_start = start;
              fb_bounds = buf ();
              fb_entries = buf ();
              fb_values = buf ();
            })
      s.ss_visible
  in
  (* [R_S^i] is the live state: record it. *)
  let record () =
    Array.iteri
      (fun j col ->
        let r, c = s.ss_visible.(j) in
        match col with
        | Scalar_buf b -> add b (raw_scalar r c)
        | File_buf f ->
          let a = file_entries r c in
          let log_write e =
            add f.fb_entries e;
            add f.fb_values (Hw.Bitvec.to_int a.(e))
          in
          if State.cell_replaced c then
            for e = 0 to Array.length a - 1 do
              log_write e
            done
          else begin
            let log = State.cell_log c in
            for p = 0 to State.cell_log_length c - 1 do
              log_write log.(p)
            done
          end;
          State.cell_drain c;
          add f.fb_bounds f.fb_entries.n)
      cols
  in
  let count = ref 0 in
  let halted = ref false in
  (try
     while !count < max_instructions do
       if halt state then begin
         halted := true;
         raise Exit
       end;
       record ();
       for k = 0 to m.n_stages - 1 do
         step k
       done;
       incr count
     done
   with Exit -> ());
  record ();
  let columns =
    Array.mapi
      (fun j col ->
        let (r : Spec.register), _ = s.ss_visible.(j) in
        match col with
        | Scalar_buf b ->
          words := !words + b.n;
          Scalar_column { sc_width = r.width; sc_values = contents b }
        | File_buf f ->
          words := !words + f.fb_entries.n;
          File_column
            (file_column ~width:r.width ~start:f.fb_start
               ~bounds:(contents f.fb_bounds) ~entries:(contents f.fb_entries)
               ~values:(contents f.fb_values)))
      cols
  in
  Obs.Counters.add Obs.Counters.Seq_instructions !count;
  Obs.Counters.add Obs.Counters.Snapshot_words !words;
  ( {
      registers = s.ss_names;
      columns;
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
