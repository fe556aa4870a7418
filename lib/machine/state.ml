(* Registers live in mutable cells so that plan bindings can capture a
   cell once and read the current value without a per-cycle hash
   lookup.

   [src] is a file cell's provenance, the scalar twin of the lane
   cells' [lc_srcs]: the image array the cell was last filled from by
   [create] or [reset], kept only while the cell is untouched since.
   Every write path ([set], [set_scalar], [write_file], [restore])
   clears it.  While it is set the cell's file {e is} the image —
   copy-on-write: [create] and [reset] point the cell at it, and the
   first in-place write ([cell_write_file], [reset]'s zero-fill) copies
   the array first.  Images are never mutated, and nobody writes a file
   array obtained from [get], so a checker holding the same physical
   image knows the two are equal without reading them
   ([holds_image]). *)
type cell = { mutable v : Value.t; mutable src : Hw.Bitvec.t array option }
type t = (string, cell) Hashtbl.t

let provenance = function Value.File a -> Some a | Value.Scalar _ -> None

(* A cell holding [v] itself: a scalar is immutable, a file is shared
   until its first write. *)
let shared v = { v; src = provenance v }

(* [List.assoc_opt] on register names, comparing with [String.equal]
   instead of polymorphic compare: every reset looks each register up
   in two init lists. *)
let rec init_of name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then Some v else init_of name rest

let create (m : Spec.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Spec.register) ->
      Hashtbl.replace tbl r.reg_name
        (match init_of r.reg_name m.Spec.init with
        | Some v -> shared v
        | None -> { v = Spec.initial_value m r; src = None }))
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
     reset costs nothing for a 4096-word memory the run never writes,
     and the sharing feeds the [Value.equal] pointer shortcut.  A file
     without an image is zero-filled in its own array, unless that
     array is still an image. *)
  List.iter
    (fun (r : Spec.register) ->
      let v =
        match init_of r.reg_name init with
        | Some v -> Some v
        | None -> init_of r.reg_name m.Spec.init
      in
      match (Hashtbl.find_opt t r.reg_name, v) with
      | Some c, Some v ->
        c.v <- v;
        c.src <- provenance v
      | Some c, None -> (
        match (c.v, c.src, r.kind) with
        | Value.File dst, None, Spec.File { addr_bits }
          when Array.length dst = 1 lsl addr_bits ->
          Array.fill dst 0 (Array.length dst) (Hw.Bitvec.zero r.width)
        | _ ->
          c.v <- Spec.initial_value m r;
          c.src <- None)
      | None, Some v -> Hashtbl.replace t r.reg_name (shared v)
      | None, None ->
        Hashtbl.replace t r.reg_name
          { v = Spec.initial_value m r; src = None })
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

(* Forgetting the image tests before it stores: scalar cells, the
   commit loop's hot path, never hold one. *)
let forget_image c = match c.src with Some _ -> c.src <- None | None -> ()

let store c v =
  c.v <- v;
  forget_image c

let set t name v =
  match Hashtbl.find_opt t name with
  | Some c -> store c v
  | None -> Hashtbl.replace t name { v; src = None }

(* The write paths of a resolved cell (looked up once by the compiled
   commit path).  Cells are never replaced — [reset] refills them in
   place — so a resolved cell stays the register's. *)
let cell_set_scalar c v = store c (Value.Scalar v)

(* The copy half of copy-on-write: a cell still holding its image
   writes into a copy of it. *)
let cell_write_file c ~addr ~data =
  (match c.src with
  | Some _ ->
    c.v <- Value.copy c.v;
    c.src <- None
  | None -> ());
  Value.write_entry c.v addr data

let get_scalar t name = Value.read_scalar (get t name)
let set_scalar t name v = set t name (Value.Scalar v)
let read_file t name addr = Value.read_file (get t name) addr

let write_file t name ~addr ~data =
  cell_write_file (cell t name) ~addr:(Hw.Bitvec.to_int addr) ~data

let holds_image t name image =
  match image with
  | Value.Scalar _ -> false
  | Value.File b -> (
    match Hashtbl.find_opt t name with
    | Some { src = Some a; _ } -> a == b
    | Some { src = None; _ } | None -> false)

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

(* A snapshot's work score is the words it scans: one per scalar, the
   array length per register file — independent of how many entries
   the blit below actually had to store. *)
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

(* [snapshot_visible], but recycling [prev] (a snapshot of the same
   machine from an earlier run): matching file entries are blitted
   into [prev]'s own arrays instead of allocating fresh ones, and the
   pairs are reused wholesale.  The caller transfers ownership of
   [prev] — sessions use this to keep per-instruction trace snapshots
   off the GC, which is why a session's trace is only valid until its
   next run. *)
let snapshot_visible_reusing ~prev (m : Spec.t) t =
  let regs =
    Spec.visible_registers m
    |> List.sort (fun (a : Spec.register) b ->
           String.compare a.reg_name b.reg_name)
  in
  let rec go prev regs =
    match (regs, prev) with
    | [], _ -> []
    | (r : Spec.register) :: rtl, ((n, pv) as pair) :: ptl
      when n = r.reg_name -> (
      let cur = get t r.reg_name in
      match (pv, cur) with
      | Value.File dst, Value.File src
        when dst != src && Array.length dst = Array.length src ->
        (* [unsafe]: i < length src = length dst. *)
        for i = 0 to Array.length src - 1 do
          let s = Array.unsafe_get src i in
          if Array.unsafe_get dst i != s then Array.unsafe_set dst i s
        done;
        pair :: go ptl rtl
      | _ -> (r.reg_name, Value.copy cur) :: go ptl rtl)
    | r :: rtl, _ -> (r.reg_name, Value.copy (get t r.reg_name)) :: go [] rtl
  in
  let snap = go prev regs in
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

(* [lc_srcs]: [Lfile] cells only (else [||]): per lane, the physical
   image array last applied by [reset_lanes], valid while the lane's
   row is untouched since.  Lets a reset from the same shared image
   (e.g. an all-zero data memory) skip the row outright, and a checker
   holding the same image know the row equal without reading it. *)
type lane_cell = {
  lc_width : int;
  lc_value : lane_value;
  lc_srcs : Hw.Bitvec.t array option array;
}

type lanes = {
  ls_spec : Spec.t;
  mutable ls_active : int;
  ls_tbl : (string, lane_cell) Hashtbl.t;
}

let create_lanes (m : Spec.t) =
  let capacity = Hw.Lanes.max_lanes in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Spec.register) ->
      let value =
        match r.kind with
        | Spec.Simple ->
          if r.width = 1 then Lbool { word = 0 }
          else Lints (Array.make capacity 0)
        | Spec.File { addr_bits } ->
          Lfile (Array.init capacity (fun _ -> Array.make (1 lsl addr_bits) 0))
      in
      let lc_srcs =
        match r.kind with
        | Spec.File _ -> Array.make capacity None
        | Spec.Simple -> [||]
      in
      Hashtbl.replace tbl r.reg_name
        { lc_width = r.width; lc_value = value; lc_srcs })
    m.registers;
  { ls_spec = m; ls_active = capacity; ls_tbl = tbl }

let lanes_active ln = ln.ls_active

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

(* The lane mirror of [reset]: lane [l] takes its values from
   [inits.(l)], falling back to the machine image and then zero, like
   the scalar reset.  The lane count becomes [Array.length inits].
   A file row reset from the physically same image array it was last
   reset from, and never written since ([lc_srcs]), is known equal and
   skipped without being read — what makes a 4k-entry shared zero
   memory free instead of a 4k-word copy per lane per reset. *)
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
      let dflt = init_of r.reg_name m.Spec.init in
      let value_for l =
        match init_of r.reg_name inits.(l) with
        | Some _ as v -> v
        | None -> dflt
      in
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
        let srcs = cell.lc_srcs in
        for l = 0 to act - 1 do
          match value_for l with
          | Some (Value.File src) -> (
            match srcs.(l) with
            | Some s when s == src && Array.length rows.(l) = Array.length src
              ->
              (* untouched since the same image was applied: equal *)
              ()
            | _ ->
              let len = Array.length src in
              if Array.length rows.(l) <> len then rows.(l) <- Array.make len 0;
              let row = rows.(l) in
              for i = 0 to len - 1 do
                let bv = Array.unsafe_get src i in
                if Hw.Bitvec.width bv <> r.width then
                  lane_err
                    "State.reset_lanes: %s[%d]: width %d, file expects %d"
                    r.reg_name i (Hw.Bitvec.width bv) r.width;
                Array.unsafe_set row i (Hw.Bitvec.to_int bv)
              done;
              srcs.(l) <- Some src)
          | Some (Value.Scalar _) ->
            lane_err "State.reset_lanes: %s is a register file, got a scalar"
              r.reg_name
          | None ->
            if Array.length rows.(l) = default_len then
              Array.fill rows.(l) 0 default_len 0
            else rows.(l) <- Array.make default_len 0;
            srcs.(l) <- None
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
