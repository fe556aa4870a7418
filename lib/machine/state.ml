(* Registers live in mutable cells so that plan bindings can capture a
   cell once and read the current value without a per-cycle hash
   lookup.

   [shared]: the cell's file array is an image — copy-on-write:
   [create] and [reset] point the cell at it, and the first in-place
   write copies it.  Images are never mutated.

   The write log ([log], [log_len]): the entries of a file written
   since the last reset (or drain), one per write, in write order — an
   append, so a write costs one store more.  A reader keeps a cursor
   into it: what lies past the cursor is what changed since the reader
   last looked.  A whole-value store ([set], [set_scalar] or [restore]
   on a file, or turning a file register into a scalar) cannot say
   which entries changed, so it marks the cell [replaced] instead.
   Scalar cells never log: their [log] stays empty. *)
type cell = {
  mutable v : Value.t;
  mutable shared : bool;
  mutable log : int array;
  mutable log_len : int;
  mutable replaced : bool;
}

type t = (string, cell) Hashtbl.t

let is_file = function Value.File _ -> true | Value.Scalar _ -> false

(* A cell holding [v] itself: a scalar is immutable, a file is shared
   until its first write. *)
let fresh ~shared v = { v; shared; log = [||]; log_len = 0; replaced = false }

(* [List.assoc_opt] on register names, comparing with [String.equal]
   instead of polymorphic compare: every reset looks each register up
   in two init lists. *)
let rec init_of name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then Some v else init_of name rest

let initial ?(init = []) (m : Spec.t) name =
  match init_of name init with
  | Some _ as v -> v
  | None -> init_of name m.Spec.init

let clear_log c =
  c.log_len <- 0;
  c.replaced <- false

let create (m : Spec.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Spec.register) ->
      Hashtbl.replace tbl r.reg_name
        (match init_of r.reg_name m.Spec.init with
        | Some v -> fresh ~shared:(is_file v) v
        | None -> fresh ~shared:false (Spec.initial_value m r)))
    m.registers;
  tbl

let reset ?(init = []) (m : Spec.t) t =
  Obs.Counters.bump Obs.Counters.State_resets;
  List.iter
    (fun (n, _) ->
      if not (Spec.register_exists m n) then
        invalid_arg (Printf.sprintf "State.reset: unknown register %s" n))
    init;
  (* Registers are reset in place (cells survive) so plan bindings
     capturing a cell stay wired across resets.  A register with an
     image is pointed at it in O(1) — copy-on-write, see [cell] — so a
     reset costs nothing for a 4096-word memory the run never writes.
     A file without an image is zero-filled in its own array, unless
     that array is still an image. *)
  List.iter
    (fun (r : Spec.register) ->
      match (Hashtbl.find_opt t r.reg_name, initial ~init m r.reg_name) with
      | Some c, Some v ->
        clear_log c;
        c.v <- v;
        c.shared <- is_file v
      | Some c, None -> (
        clear_log c;
        match (c.v, r.kind) with
        | Value.File dst, Spec.File { addr_bits }
          when (not c.shared) && Array.length dst = 1 lsl addr_bits ->
          Array.fill dst 0 (Array.length dst) (Hw.Bitvec.zero r.width)
        | _ ->
          c.v <- Spec.initial_value m r;
          c.shared <- false)
      | None, Some v -> Hashtbl.replace t r.reg_name (fresh ~shared:(is_file v) v)
      | None, None ->
        Hashtbl.replace t r.reg_name
          (fresh ~shared:false (Spec.initial_value m r)))
    m.registers;
  (* Every spec register is now present, so names the spec does not
     know — added by [set] during an instrumented run — exist only if
     the table outgrew the spec; scan for them only then. *)
  if Hashtbl.length t > List.length m.registers then begin
    let extras =
      Hashtbl.fold
        (fun n _ acc -> if Spec.register_exists m n then acc else n :: acc)
        t []
    in
    List.iter (Hashtbl.remove t) extras
  end

let cell t name =
  match Hashtbl.find_opt t name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "State.get: unknown register %s" name)

let get t name = (cell t name).v

(* A whole-value store: a file involved on either side changes entries
   the log cannot name. *)
let store c v =
  (match (c.v, v) with
  | Value.Scalar _, Value.Scalar _ -> ()
  | _ -> c.replaced <- true);
  c.v <- v;
  c.shared <- false

let set t name v =
  match Hashtbl.find_opt t name with
  | Some c -> store c v
  | None -> Hashtbl.replace t name (fresh ~shared:false v)

(* The write paths of a resolved cell (looked up once by the compiled
   commit path).  Cells are never replaced — [reset] refills them in
   place — so a resolved cell stays the register's. *)
let cell_set_scalar c v = store c (Value.Scalar v)

(* A growable int array's append: [arr] holds [n] elements. *)
let push arr n e =
  let a =
    if n = Array.length arr then begin
      let grown = Array.make (max 8 (2 * n)) 0 in
      Array.blit arr 0 grown 0 n;
      grown
    end
    else arr
  in
  Array.unsafe_set a n e;
  a

let log_entry c e =
  if not c.replaced then begin
    c.log <- push c.log c.log_len e;
    c.log_len <- c.log_len + 1
  end

(* One entry, in place — into a copy of the image first if the cell
   still shares one (the copy half of copy-on-write) — and logged. *)
let cell_write_file c ~addr ~data =
  match c.v with
  | Value.File a ->
    let a =
      if c.shared then begin
        let a = Array.copy a in
        c.v <- Value.File a;
        c.shared <- false;
        a
      end
      else a
    in
    let e = addr land (Array.length a - 1) in
    a.(e) <- data;
    log_entry c e
  | Value.Scalar _ -> Value.write_entry c.v addr data

let get_scalar t name = Value.read_scalar (get t name)
let set_scalar t name v = set t name (Value.Scalar v)
let read_file t name addr = Value.read_file (get t name) addr

let write_file t name ~addr ~data =
  cell_write_file (cell t name) ~addr:(Hw.Bitvec.to_int addr) ~data

let cell_value c = c.v
let cell_log c = c.log
let cell_log_length c = c.log_len
let cell_replaced c = c.replaced

let cell_drain c = c.log_len <- 0

let cell_snapshot c = if c.shared then c.v else Value.copy c.v

let eval_env t =
  {
    Hw.Eval.lookup_input =
      (fun n ->
        match Hashtbl.find_opt t n with
        | Some { v = Value.Scalar v; _ } -> v
        | Some { v = Value.File _; _ } ->
          raise (Hw.Eval.Eval_error (n ^ " is a register file, not a scalar"))
        | None -> raise Not_found);
    Hw.Eval.lookup_file =
      (fun f addr ->
        match Hashtbl.find_opt t f with
        | Some { v = Value.File _ as v; _ } -> Value.read_file v addr
        | Some { v = Value.Scalar _; _ } ->
          raise (Hw.Eval.Eval_error (f ^ " is a scalar, not a register file"))
        | None -> raise Not_found);
  }

type bound = {
  instance : Hw.Plan.instance;
  loads : (int * cell) array;  (* input slot <- cell, refreshed by [load] *)
}

let bind_plan ?(extern = fun _ -> false) t plan =
  Obs.Counters.bump Obs.Counters.Plan_binds;
  let loads = ref [] in
  Hw.Plan.iter_inputs plan (fun name ~slot ~width:_ ->
      match Hashtbl.find_opt t name with
      | Some ({ v = Value.Scalar _; _ } as c) -> loads := (slot, c) :: !loads
      | Some { v = Value.File _; _ } ->
        raise (Hw.Eval.Eval_error (name ^ " is a register file, not a scalar"))
      | None ->
        if not (extern name) then
          raise (Hw.Eval.Eval_error ("unknown input " ^ name)));
  let instance = Hw.Plan.instance plan in
  Hw.Plan.iter_files plan (fun name ~index:_ ~width:_ ->
      match Hashtbl.find_opt t name with
      | Some ({ v = Value.File _; _ } as c) ->
        Hw.Plan.bind_file instance name (fun addr -> Value.read_entry c.v addr)
      | Some { v = Value.Scalar _; _ } ->
        raise (Hw.Eval.Eval_error (name ^ " is a scalar, not a register file"))
      | None ->
        raise (Hw.Eval.Eval_error ("unknown register file " ^ name)));
  { instance; loads = Array.of_list !loads }

let bound_instance b = b.instance

let load b =
  let inst = b.instance in
  Array.iter
    (fun (slot, c) -> Hw.Plan.set inst slot (Value.read_scalar c.v))
    b.loads

let snapshot t =
  Hashtbl.fold (fun n c acc -> (n, Value.copy c.v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A snapshot's work score is the words it copies: one per scalar,
   the array length per register file. *)
let snap_words snap =
  List.fold_left
    (fun acc (_, v) ->
      acc
      + match v with Value.Scalar _ -> 1 | Value.File a -> Array.length a)
    0 snap

let snapshot_visible (m : Spec.t) t =
  let snap =
    Spec.visible_registers m
    |> List.map (fun (r : Spec.register) ->
           (r.reg_name, Value.copy (get t r.reg_name)))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Obs.Counters.add Obs.Counters.Snapshot_words (snap_words snap);
  snap

let restore t snap = List.iter (fun (n, v) -> set t n (Value.copy v)) snap

(* ------------------------------------------------------------------ *)
(* Structure-of-arrays lane state                                      *)
(* ------------------------------------------------------------------ *)

(* The lane mirror of [t]: one record per register carrying all lanes'
   values side by side — a packed word for width-1 scalars, a raw int
   per lane for wider ones, an int array per lane for files.  Any
   shape or width problem raises immediately. *)

type lword = { mutable word : int }

type lane_value =
  | Lbool of lword
  | Lints of int array  (* lane -> value *)
  | Lfile of int array array  (* lane -> contents; inner rows replaceable *)

(* One lane row's record of what differs from zero: [loaded], the
   non-zero entries its last reset loaded from an image, and the write
   log ([written], [n_written]: one entry per write, as in the scalar
   cells).  [reset_lanes] undoes exactly these entries, and the
   checker reads the log past its cursor. *)
type lane_log = {
  mutable loaded : int array;
  mutable n_loaded : int;
  mutable written : int array;
  mutable n_written : int;
}

type lane_cell = {
  lc_width : int;
  lc_value : lane_value;
  lc_logs : lane_log array;
}

type lanes = {
  ls_spec : Spec.t;
  mutable ls_active : int;
  ls_tbl : (string, lane_cell) Hashtbl.t;
}

let lane_log () = { loaded = [||]; n_loaded = 0; written = [||]; n_written = 0 }

let lane_log_write lg e =
  lg.written <- push lg.written lg.n_written e;
  lg.n_written <- lg.n_written + 1

let lane_log_entries lg = lg.written
let lane_log_length lg = lg.n_written

let create_lanes (m : Spec.t) =
  let capacity = Hw.Lanes.max_lanes in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Spec.register) ->
      let value, logs =
        match r.kind with
        | Spec.Simple ->
          ((if r.width = 1 then Lbool { word = 0 } else Lints (Array.make capacity 0)), [||])
        | Spec.File { addr_bits } ->
          ( Lfile (Array.init capacity (fun _ -> Array.make (1 lsl addr_bits) 0)),
            Array.init capacity (fun _ -> lane_log ()) )
      in
      Hashtbl.replace tbl r.reg_name
        { lc_width = r.width; lc_value = value; lc_logs = logs })
    m.registers;
  { ls_spec = m; ls_active = capacity; ls_tbl = tbl }

let lanes_active ln = ln.ls_active
let lanes_spec ln = ln.ls_spec

let lanes_cell ln name =
  match Hashtbl.find_opt ln.ls_tbl name with
  | Some c -> c
  | None ->
    invalid_arg (Printf.sprintf "State.lanes_cell: unknown register %s" name)

let lane_err fmt = Printf.ksprintf invalid_arg fmt

let scalar_int ~what (r : Spec.register) v =
  match v with
  | Value.Scalar bv ->
    if Hw.Bitvec.width bv <> r.width then
      lane_err "State.%s: %s: width %d, register expects %d" what r.reg_name
        (Hw.Bitvec.width bv) r.width;
    Hw.Bitvec.to_int bv
  | Value.File _ ->
    lane_err "State.%s: %s is a scalar, got a register file" what r.reg_name

(* Zero a row where it may differ from zero — the entries its last
   reset loaded and those written since — and forget both lists. *)
let undo_row row lg =
  for j = 0 to lg.n_loaded - 1 do
    Array.unsafe_set row (Array.unsafe_get lg.loaded j) 0
  done;
  for j = 0 to lg.n_written - 1 do
    Array.unsafe_set row (Array.unsafe_get lg.written j) 0
  done;
  lg.n_loaded <- 0;
  lg.n_written <- 0

(* Load an image into a zero row, recording its non-zero entries.
   Zeros are interned per width, so an entry physically equal to the
   file's zero is both zero and of the right width: only the others
   are unboxed and width-checked. *)
let load_row (r : Spec.register) row lg src =
  let zero = Hw.Bitvec.zero r.width in
  for i = 0 to Array.length src - 1 do
    let bv = Array.unsafe_get src i in
    if bv != zero then begin
      if Hw.Bitvec.width bv <> r.width then
        lane_err "State.reset_lanes: %s[%d]: width %d, file expects %d"
          r.reg_name i (Hw.Bitvec.width bv) r.width;
      let v = Hw.Bitvec.to_int bv in
      if v <> 0 then begin
        Array.unsafe_set row i v;
        lg.loaded <- push lg.loaded lg.n_loaded i;
        lg.n_loaded <- lg.n_loaded + 1
      end
    end
  done

(* The lane mirror of [reset]: lane [l] takes its values from
   [inits.(l)], falling back to the machine image and then zero, like
   the scalar reset.  The lane count becomes [Array.length inits].
   A file row is first zeroed where its last program loaded or wrote
   ([undo_row]), then loaded from its image: a reset touches only what
   the two programs touch, not the whole 4096-entry memory. *)
let reset_lanes ~inits ln =
  let m = ln.ls_spec in
  let act = Array.length inits in
  if act < 1 || act > Hw.Lanes.max_lanes then
    lane_err "State.reset_lanes: %d lanes (capacity %d)" act Hw.Lanes.max_lanes;
  ln.ls_active <- act;
  Obs.Counters.add Obs.Counters.State_resets act;
  Array.iter
    (fun init ->
      List.iter
        (fun (n, _) ->
          if not (Spec.register_exists m n) then
            invalid_arg (Printf.sprintf "State.reset: unknown register %s" n))
        init)
    inits;
  let amask = Hw.Lanes.mask_of_count act in
  List.iter
    (fun (r : Spec.register) ->
      let cell = Hashtbl.find ln.ls_tbl r.reg_name in
      let value_for l = initial ~init:inits.(l) m r.reg_name in
      match cell.lc_value with
      | Lbool b ->
        let w = ref 0 in
        for l = 0 to act - 1 do
          match value_for l with
          | Some v ->
            if scalar_int ~what:"reset_lanes" r v <> 0 then
              w := !w lor (1 lsl l)
          | None -> ()
        done;
        b.word <- (b.word land lnot amask) lor !w
      | Lints a ->
        for l = 0 to act - 1 do
          a.(l) <-
            (match value_for l with
            | Some v -> scalar_int ~what:"reset_lanes" r v
            | None -> 0)
        done
      | Lfile rows ->
        let default_len =
          match r.kind with
          | Spec.File { addr_bits } -> 1 lsl addr_bits
          | Spec.Simple -> assert false
        in
        for l = 0 to act - 1 do
          let src =
            match value_for l with
            | Some (Value.File src) -> Some src
            | Some (Value.Scalar _) ->
              lane_err "State.reset_lanes: %s is a register file, got a scalar"
                r.reg_name
            | None -> None
          in
          let len = match src with Some s -> Array.length s | None -> default_len in
          let lg = cell.lc_logs.(l) in
          if Array.length rows.(l) = len then undo_row rows.(l) lg
          else begin
            rows.(l) <- Array.make len 0;
            lg.n_loaded <- 0;
            lg.n_written <- 0
          end;
          Option.iter (load_row r rows.(l) lg) src
        done)
    m.registers

type lanes_bound = {
  lb_inst : Hw.Plan.lanes;
  lb_bools : (int * lword) array;  (* input slot <- packed word *)
  lb_ints : (int * int array) array;  (* input slot <- lane row *)
  lb_state : lanes;
}

let bind_lanes ?(extern = fun _ -> false) ln pl =
  Obs.Counters.bump Obs.Counters.Plan_binds;
  let plan = Hw.Plan.lanes_plan pl in
  let bools = ref [] and ints = ref [] in
  Hw.Plan.iter_inputs plan (fun name ~slot ~width ->
      match Hashtbl.find_opt ln.ls_tbl name with
      | Some cell -> (
        if cell.lc_width <> width then
          raise
            (Hw.Eval.Eval_error
               (Printf.sprintf "input %s: stored width %d, expression expects %d"
                  name cell.lc_width width));
        match cell.lc_value with
        | Lbool b -> bools := (slot, b) :: !bools
        | Lints a -> ints := (slot, a) :: !ints
        | Lfile _ ->
          raise (Hw.Eval.Eval_error (name ^ " is a register file, not a scalar")))
      | None ->
        if not (extern name) then
          raise (Hw.Eval.Eval_error ("unknown input " ^ name)));
  Hw.Plan.iter_files plan (fun name ~index:_ ~width ->
      match Hashtbl.find_opt ln.ls_tbl name with
      | Some { lc_width; lc_value = Lfile rows; _ } ->
        if lc_width <> width then
          raise
            (Hw.Eval.Eval_error
               (Printf.sprintf "file %s: stored width %d, expression expects %d"
                  name lc_width width));
        Hw.Plan.lanes_bind_file pl name rows
      | Some _ ->
        raise (Hw.Eval.Eval_error (name ^ " is a scalar, not a register file"))
      | None -> raise (Hw.Eval.Eval_error ("unknown register file " ^ name)));
  {
    lb_inst = pl;
    lb_bools = Array.of_list !bools;
    lb_ints = Array.of_list !ints;
    lb_state = ln;
  }

let load_lanes lb =
  let pl = lb.lb_inst in
  let act = lb.lb_state.ls_active in
  Array.iter (fun (slot, b) -> Hw.Plan.lanes_set_word pl slot b.word) lb.lb_bools;
  Array.iter
    (fun (slot, row) -> Array.blit row 0 (Hw.Plan.lanes_ints pl slot) 0 act)
    lb.lb_ints

let diff a b =
  let names = List.map fst a in
  let names_b = List.map fst b in
  if List.sort String.compare names <> List.sort String.compare names_b then
    invalid_arg "State.diff: snapshots have different shapes";
  List.filter_map
    (fun (n, va) ->
      let vb = List.assoc n b in
      if Value.equal va vb then None else Some n)
    a

let equal_on a b = diff a b = []
