type update =
  | Set_scalar of string * Hw.Bitvec.t
  | Write_file of string * Hw.Bitvec.t * Hw.Bitvec.t

let eval_guard env g =
  match g with None -> true | Some g -> Hw.Eval.eval_bool env g

let eval_write (m : Spec.t) ~env (w : Spec.write) =
  let r = Spec.find_register m w.dst in
  let enabled = eval_guard env w.guard in
  match r.kind with
  | Spec.File _ ->
    if enabled then
      let addr =
        match w.wr_addr with
        | Some a -> Hw.Eval.eval env a
        | None -> invalid_arg "Commit: file write without address"
      in
      [ Write_file (w.dst, addr, Hw.Eval.eval env w.value) ]
    else []
  | Spec.Simple -> (
    match r.prev_instance with
    | None -> if enabled then [ Set_scalar (w.dst, Hw.Eval.eval env w.value) ] else []
    | Some p ->
      let v =
        if enabled then Hw.Eval.eval env w.value
        else
          (* Pass-through from the previous instance. *)
          Hw.Eval.eval env (Hw.Expr.input p r.width)
      in
      [ Set_scalar (w.dst, v) ])

let stage_updates (m : Spec.t) ~stage ~env state =
  let s = Spec.stage_of m stage in
  let explicit = List.concat_map (eval_write m ~env) s.writes in
  (* Instance registers of this stage without an explicit write still
     shift from their previous instance. *)
  let written = List.map (fun (w : Spec.write) -> w.dst) s.writes in
  let shifts =
    List.filter_map
      (fun (r : Spec.register) ->
        match r.prev_instance with
        | Some p
          when r.stage = stage && not (List.mem r.reg_name written) ->
          Some (Set_scalar (r.reg_name, Value.read_scalar (State.get state p)))
        | Some _ | None -> None)
      m.registers
  in
  explicit @ shifts

let writes_updates (m : Spec.t) ~writes ~env _state =
  List.concat_map
    (fun (w : Spec.write) ->
      let r = Spec.find_register m w.dst in
      let enabled = eval_guard env w.guard in
      if not enabled then []
      else
        match r.kind with
        | Spec.File _ ->
          let addr =
            match w.wr_addr with
            | Some a -> Hw.Eval.eval env a
            | None -> invalid_arg "Commit: file write without address"
          in
          [ Write_file (w.dst, addr, Hw.Eval.eval env w.value) ]
        | Spec.Simple -> [ Set_scalar (w.dst, Hw.Eval.eval env w.value) ])
    writes

(* ---- compiled path: writes evaluated through a Plan ---- *)

type cwrite = {
  cw_dst : string;
  cw_file : bool;
  cw_value : int;        (* slot of f_k_R *)
  cw_guard : int option; (* slot of f_k_Rwe; [None] = always enabled *)
  cw_addr : int option;  (* slot of f_k_Rwa for files *)
  cw_pass : int option;  (* slot of the previous instance (pass-through) *)
}

type cstage = {
  cs_writes : cwrite list;
  cs_shifts : (string * int) list;
      (* instance registers without an explicit write: dst, slot of
         the previous instance's value *)
}

let compile_write ?(pass = true) (m : Spec.t) b (w : Spec.write) =
  let r = Spec.find_register m w.dst in
  let guard = Option.map (Hw.Plan.root b) w.guard in
  match r.kind with
  | Spec.File _ ->
    let addr =
      match w.wr_addr with
      | Some a -> Hw.Plan.root b a
      | None -> invalid_arg "Commit: file write without address"
    in
    {
      cw_dst = w.dst;
      cw_file = true;
      cw_value = Hw.Plan.root b w.value;
      cw_guard = guard;
      cw_addr = Some addr;
      cw_pass = None;
    }
  | Spec.Simple ->
    let pass_slot =
      if pass then
        Option.map
          (fun p -> Hw.Plan.root b (Hw.Expr.input p r.width))
          r.prev_instance
      else None
    in
    {
      cw_dst = w.dst;
      cw_file = false;
      cw_value = Hw.Plan.root b w.value;
      cw_guard = guard;
      cw_addr = None;
      cw_pass = pass_slot;
    }

let compile_writes (m : Spec.t) b writes =
  (* Rollback writes have no pass-through: a disabled corrective write
     simply does nothing (mirrors [writes_updates]). *)
  List.map (compile_write ~pass:false m b) writes

let compile_stage (m : Spec.t) b ~stage =
  let s = Spec.stage_of m stage in
  let writes = List.map (compile_write m b) s.writes in
  let written = List.map (fun (w : Spec.write) -> w.dst) s.writes in
  let shifts =
    List.filter_map
      (fun (r : Spec.register) ->
        match r.prev_instance with
        | Some p when r.stage = stage && not (List.mem r.reg_name written) ->
          Some
            ( r.reg_name,
              Hw.Plan.root b
                (Hw.Expr.input p (Spec.find_register m p).width) )
        | Some _ | None -> None)
      m.registers
  in
  { cs_writes = writes; cs_shifts = shifts }

(* ---- resolved path: compiled writes bound to one state's cells ---- *)

(* A [cwrite] or shift with its destination cell looked up once per
   session.  [rw_guard] / [rw_pass] are [-1] when absent; a shift is an
   unguarded plain write of the previous instance's slot. *)
type rwrite = {
  rw_cell : State.cell;
  rw_file : bool;
  rw_value : int;
  rw_guard : int;
  rw_addr : int;
  rw_pass : int;
}

type resolved = rwrite array

let slot_or_none = function Some s -> s | None -> -1

let resolve_write state (cw : cwrite) =
  {
    rw_cell = State.cell state cw.cw_dst;
    rw_file = cw.cw_file;
    rw_value = cw.cw_value;
    rw_guard = slot_or_none cw.cw_guard;
    rw_addr = slot_or_none cw.cw_addr;
    rw_pass = slot_or_none cw.cw_pass;
  }

let resolve_writes state cws = Array.of_list (List.map (resolve_write state) cws)

let resolve_stage state (cs : cstage) =
  let shift (dst, slot) =
    {
      rw_cell = State.cell state dst;
      rw_file = false;
      rw_value = slot;
      rw_guard = -1;
      rw_addr = -1;
      rw_pass = -1;
    }
  in
  Array.of_list
    (List.map (resolve_write state) cs.cs_writes @ List.map shift cs.cs_shifts)

let commit inst (r : resolved) =
  let cells = ref 0 in
  for i = 0 to Array.length r - 1 do
    let rw = Array.unsafe_get r i in
    if rw.rw_guard < 0 || Hw.Plan.get_bool inst rw.rw_guard then begin
      incr cells;
      if rw.rw_file then
        State.cell_write_file rw.rw_cell
          ~addr:(Hw.Plan.get_raw inst rw.rw_addr)
          ~data:(Hw.Plan.get inst rw.rw_value)
      else State.cell_set_scalar rw.rw_cell (Hw.Plan.get inst rw.rw_value)
    end
    else if rw.rw_pass >= 0 then begin
      incr cells;
      State.cell_set_scalar rw.rw_cell (Hw.Plan.get inst rw.rw_pass)
    end
  done;
  Obs.Counters.add Obs.Counters.Cells_written !cells

let apply state updates =
  Obs.Counters.add Obs.Counters.Cells_written (List.length updates);
  List.iter
    (fun u ->
      match u with
      | Set_scalar (n, v) -> State.set_scalar state n v
      | Write_file (f, addr, data) -> State.write_file state f ~addr ~data)
    updates

(* ---- lane path: one compiled write applied across a lane mask ---- *)

(* The lane mirror of [commit]: values come straight from the lane
   slots and land in the lane cells.  [mask] selects the lanes this
   commit applies to (the stage's update-enable word).  The return
   value is the exact scalar [Cells_written] equivalent: one per
   enabled file or plain scalar write per lane, one per pass-through
   or shift write per masked lane — the caller counts it.

   Width discipline: the value/pass slots were compiled from the same
   spec that sized the lane cells, so widths agree by construction;
   the [lane_err] guards catch degenerate mutants. *)

let lane_err fmt = Printf.ksprintf invalid_arg fmt

let lanes_guard inst ~mask ~act = function
  | None -> mask
  | Some g ->
    if Hw.Plan.lanes_is_bool inst g then Hw.Plan.lanes_word inst g land mask
    else begin
      (* get_bool on a wide slot is a nonzero test *)
      let va = Hw.Plan.lanes_ints inst g in
      let w = ref 0 in
      for l = 0 to act - 1 do
        if Hw.Lanes.test mask l && va.(l) <> 0 then w := !w lor (1 lsl l)
      done;
      !w
    end

let lanes_cwrite inst st ~mask (cw : cwrite) =
  let act = State.lanes_active st in
  let cell = State.lanes_cell st cw.cw_dst in
  let plan = Hw.Plan.lanes_plan inst in
  if Hw.Plan.slot_width plan cw.cw_value <> cell.State.lc_width then
    lane_err "lane commit: %s: write width %d, register expects %d" cw.cw_dst
      (Hw.Plan.slot_width plan cw.cw_value)
      cell.State.lc_width;
  let en = lanes_guard inst ~mask ~act cw.cw_guard in
  if cw.cw_file then begin
    match cell.State.lc_value with
    | State.Lfile rows ->
      let addr = Option.get cw.cw_addr in
      let srcs = cell.State.lc_srcs in
      for l = 0 to act - 1 do
        if Hw.Lanes.test en l then begin
          let row = rows.(l) in
          row.(Hw.Plan.lanes_get inst addr l land (Array.length row - 1)) <-
            Hw.Plan.lanes_get inst cw.cw_value l;
          srcs.(l) <- None
        end
      done;
      Hw.Lanes.popcount en
    | State.Lbool _ | State.Lints _ ->
      lane_err "lane commit: %s is a scalar, not a register file" cw.cw_dst
  end
  else
    match cw.cw_pass with
    | None ->
      (match cell.State.lc_value with
      | State.Lbool b ->
        b.State.word <-
          (b.State.word land lnot en)
          lor (Hw.Plan.lanes_word inst cw.cw_value land en)
      | State.Lints a ->
        let v = Hw.Plan.lanes_ints inst cw.cw_value in
        for l = 0 to act - 1 do
          if Hw.Lanes.test en l then a.(l) <- v.(l)
        done
      | State.Lfile _ ->
        lane_err "lane commit: %s is a register file, not a scalar" cw.cw_dst);
      Hw.Lanes.popcount en
    | Some p ->
      (match cell.State.lc_value with
      | State.Lbool b ->
        let src =
          (Hw.Plan.lanes_word inst cw.cw_value land en)
          lor (Hw.Plan.lanes_word inst p land mask land lnot en)
        in
        b.State.word <- (b.State.word land lnot mask) lor (src land mask)
      | State.Lints a ->
        let v = Hw.Plan.lanes_ints inst cw.cw_value in
        let pv = Hw.Plan.lanes_ints inst p in
        for l = 0 to act - 1 do
          if Hw.Lanes.test mask l then
            a.(l) <- (if Hw.Lanes.test en l then v.(l) else pv.(l))
        done
      | State.Lfile _ ->
        lane_err "lane commit: %s is a register file, not a scalar" cw.cw_dst);
      Hw.Lanes.popcount mask

let lanes_shift inst st ~mask (dst, slot) =
  let act = State.lanes_active st in
  let cell = State.lanes_cell st dst in
  if Hw.Plan.slot_width (Hw.Plan.lanes_plan inst) slot <> cell.State.lc_width
  then
    lane_err "lane commit: %s: shift width %d, register expects %d" dst
      (Hw.Plan.slot_width (Hw.Plan.lanes_plan inst) slot)
      cell.State.lc_width;
  (match cell.State.lc_value with
  | State.Lbool b ->
    b.State.word <-
      (b.State.word land lnot mask)
      lor (Hw.Plan.lanes_word inst slot land mask)
  | State.Lints a ->
    let v = Hw.Plan.lanes_ints inst slot in
    for l = 0 to act - 1 do
      if Hw.Lanes.test mask l then a.(l) <- v.(l)
    done
  | State.Lfile _ -> lane_err "lane commit: %s is a register file" dst);
  Hw.Lanes.popcount mask

let lanes_writes_updates inst st ~mask cws =
  List.fold_left (fun acc cw -> acc + lanes_cwrite inst st ~mask cw) 0 cws

let lanes_stage_updates inst st ~mask (cs : cstage) =
  let cells = lanes_writes_updates inst st ~mask cs.cs_writes in
  List.fold_left (fun acc s -> acc + lanes_shift inst st ~mask s) cells
    cs.cs_shifts

let pp_update ppf = function
  | Set_scalar (n, v) -> Format.fprintf ppf "%s := %a" n Hw.Bitvec.pp v
  | Write_file (f, a, d) ->
    Format.fprintf ppf "%s[%a] := %a" f Hw.Bitvec.pp a Hw.Bitvec.pp d
