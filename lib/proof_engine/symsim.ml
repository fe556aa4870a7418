module B = Hw.Bdd
module E = Hw.Expr
module Spec = Machine.Spec

type outcome =
  | Proved of { instructions : int; variables : int; bdd_nodes : int }
  | Mismatch of {
      instruction : int;
      register : string;
      assignment : (string * int) list;
    }
  | Control_depends_on_data of { cycle : int; what : string }
  | Stopped of { cycle : int; retired : int; instructions : int }

exception Symbolic_control of { cycle : int; what : string }

type svalue =
  | SScalar of B.t array
  | SFile of B.t array array  (* entries, each LSB-first *)

type sstate = (string, svalue) Hashtbl.t

let copy_svalue = function
  | SScalar v -> SScalar (Array.copy v)
  | SFile entries -> SFile (Array.map Array.copy entries)

(* ------------------------------------------------------------------ *)
(* Symbolic state construction                                         *)
(* ------------------------------------------------------------------ *)

type alloc = {
  man : B.man;
  mutable next : int;
  bit_names : (int, string * int) Hashtbl.t;  (* var -> (display, bit) *)
}

let fresh a ~name ~width =
  let base = a.next in
  a.next <- base + width;
  Array.init width (fun i ->
      Hashtbl.replace a.bit_names (base + i) (name, i);
      B.var a.man (base + i))

(* Symbolic file entries are allocated bit-interleaved (all entries'
   bit 0 first, then bit 1, ...): with that ordering the BDDs of sums
   and comparisons over several entries stay polynomial (the carry is
   resolved bit-plane by bit-plane), where an entry-major order would
   be exponential in the data width. *)
let fresh_file a ~name ~entries ~width =
  let base = a.next in
  a.next <- base + (entries * width);
  Array.init entries (fun e ->
      Array.init width (fun b ->
          let v = base + (b * entries) + e in
          Hashtbl.replace a.bit_names v (Printf.sprintf "%s[%d]" name e, b);
          B.var a.man v))

let const_vector v =
  Array.init (Hw.Bitvec.width v) (fun i ->
      if Hw.Bitvec.bit v i then B.tru else B.fls)

(* The symbolic initial values are allocated once and shared by the
   sequential and pipelined runs: both machines must start from the
   same universally quantified state (and disjoint allocations would
   also wreck the BDD variable ordering when the final states are
   compared). *)
let shared_symbolic a (m : Spec.t) ~symbolic =
  let tbl : (string, svalue) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun name ->
      match Spec.find_register m name with
      | r -> (
        match r.Spec.kind with
        | Spec.Simple ->
          Hashtbl.replace tbl name (SScalar (fresh a ~name ~width:r.Spec.width))
        | Spec.File { addr_bits } ->
          Hashtbl.replace tbl name
            (SFile
               (fresh_file a ~name ~entries:(1 lsl addr_bits)
                  ~width:r.Spec.width)))
      | exception Not_found ->
        invalid_arg (Printf.sprintf "Symsim: unknown symbolic register %s" name))
    symbolic;
  tbl

let initial_state shared (m : Spec.t) =
  let st : sstate = Hashtbl.create 32 in
  List.iter
    (fun (r : Spec.register) ->
      let name = r.Spec.reg_name in
      let v =
        match Hashtbl.find_opt shared name with
        | Some sv -> copy_svalue sv
        | None -> (
          match (r.Spec.kind, Spec.initial_value m r) with
          | Spec.Simple, Machine.Value.Scalar bv -> SScalar (const_vector bv)
          | Spec.File _, Machine.Value.File arr ->
            SFile (Array.map const_vector arr)
          | Spec.Simple, Machine.Value.File _
          | Spec.File _, Machine.Value.Scalar _ -> assert false)
      in
      Hashtbl.replace st name v)
    m.Spec.registers;
  st

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation helpers                                         *)
(* ------------------------------------------------------------------ *)

let addr_equals man addr i =
  (* addr (LSB-first vector) == constant i *)
  let acc = ref B.tru in
  Array.iteri
    (fun b bit ->
      let want = (i lsr b) land 1 = 1 in
      acc := B.conj man !acc (if want then bit else B.neg man bit))
    addr;
  !acc

let file_read man entries addr =
  let n = Array.length entries in
  let acc = ref entries.(0) in
  for i = 1 to n - 1 do
    let sel = addr_equals man addr i in
    acc := Array.mapi (fun b cur -> B.ite man sel entries.(i).(b) cur) !acc
  done;
  !acc

let blaster a ~cycle (st : sstate) (overlay : (string, B.t array) Hashtbl.t) =
  Equiv.Blast.create a.man
    ~resolve_input:(fun name width ->
      match Hashtbl.find_opt overlay name with
      | Some v -> v
      | None -> (
        match Hashtbl.find_opt st name with
        | Some (SScalar v) ->
          if Array.length v <> width then
            failwith (Printf.sprintf "Symsim: %s width mismatch" name)
          else v
        | Some (SFile _) ->
          failwith (Printf.sprintf "Symsim: %s read as scalar" name)
        | None ->
          raise
            (Symbolic_control { cycle; what = "unknown input " ^ name })))
    ~resolve_file:(fun file addr _width ->
      match Hashtbl.find_opt st file with
      | Some (SFile entries) -> file_read a.man entries addr
      | Some (SScalar _) | None ->
        failwith (Printf.sprintf "Symsim: unknown file %s" file))

(* ------------------------------------------------------------------ *)
(* Symbolic commit (mirrors Machine.Commit)                            *)
(* ------------------------------------------------------------------ *)

type supdate =
  | USet of string * B.t array
  | UFile of string * B.t array * B.t array * B.t  (* file, addr, data, enable *)

let write_updates a ctx (m : Spec.t) st (w : Spec.write) =
  let man = a.man in
  let r = Spec.find_register m w.Spec.dst in
  let guard =
    match w.Spec.guard with
    | None -> B.tru
    | Some g -> (Equiv.Blast.expr ctx g).(0)
  in
  match r.Spec.kind with
  | Spec.File _ ->
    if B.is_fls guard then []
    else
      let addr =
        match w.Spec.wr_addr with
        | Some e -> Equiv.Blast.expr ctx e
        | None -> failwith "Symsim: file write without address"
      in
      [ UFile (w.Spec.dst, addr, Equiv.Blast.expr ctx w.Spec.value, guard) ]
  | Spec.Simple -> (
    let v = Equiv.Blast.expr ctx w.Spec.value in
    match r.Spec.prev_instance with
    | None ->
      if B.is_fls guard then []
      else if B.is_tru guard then [ USet (w.Spec.dst, v) ]
      else
        let cur =
          match Hashtbl.find_opt st w.Spec.dst with
          | Some (SScalar c) -> c
          | _ -> failwith "Symsim: scalar state missing"
        in
        [ USet (w.Spec.dst, Array.mapi (fun i vb -> B.ite man guard vb cur.(i)) v) ]
    | Some p ->
      let prev =
        match Hashtbl.find_opt st p with
        | Some (SScalar c) -> c
        | _ -> failwith "Symsim: prev instance missing"
      in
      [ USet (w.Spec.dst, Array.mapi (fun i vb -> B.ite man guard vb prev.(i)) v) ])

let stage_updates a ctx (m : Spec.t) st ~stage =
  let s = Spec.stage_of m stage in
  let explicit = List.concat_map (write_updates a ctx m st) s.Spec.writes in
  let written = List.map (fun (w : Spec.write) -> w.Spec.dst) s.Spec.writes in
  let shifts =
    List.filter_map
      (fun (r : Spec.register) ->
        match r.Spec.prev_instance with
        | Some p when r.Spec.stage = stage && not (List.mem r.Spec.reg_name written)
          -> (
          match Hashtbl.find_opt st p with
          | Some (SScalar v) -> Some (USet (r.Spec.reg_name, Array.copy v))
          | _ -> None)
        | Some _ | None -> None)
      m.Spec.registers
  in
  explicit @ shifts

let apply a st updates =
  let man = a.man in
  List.iter
    (fun u ->
      match u with
      | USet (n, v) -> Hashtbl.replace st n (SScalar v)
      | UFile (f, addr, data, enable) -> (
        match Hashtbl.find_opt st f with
        | Some (SFile entries) ->
          let entries' =
            Array.mapi
              (fun i entry ->
                let sel = B.conj man enable (addr_equals man addr i) in
                Array.mapi (fun b cur -> B.ite man sel data.(b) cur) entry)
              entries
          in
          Hashtbl.replace st f (SFile entries')
        | _ -> failwith "Symsim: file state missing"))
    updates

(* ------------------------------------------------------------------ *)
(* The two machines                                                    *)
(* ------------------------------------------------------------------ *)

let seq_spec_trace a shared (m : Spec.t) ~instructions =
  let st = initial_state shared m in
  let snaps = Array.make (instructions + 1) [] in
  let visible () =
    List.filter_map
      (fun (r : Spec.register) ->
        if r.Spec.visible then
          Some (r.Spec.reg_name, copy_svalue (Hashtbl.find st r.Spec.reg_name))
        else None)
      m.Spec.registers
  in
  for i = 0 to instructions - 1 do
    snaps.(i) <- visible ();
    for k = 0 to m.Spec.n_stages - 1 do
      let ctx = blaster a ~cycle:(-1) st (Hashtbl.create 1) in
      let ups = stage_updates a ctx m st ~stage:k in
      apply a st ups
    done
  done;
  snaps.(instructions) <- visible ();
  snaps

let svalue_diff man a b =
  match (a, b) with
  | SScalar x, SScalar y ->
    Array.map2 (B.xor man) x y |> Array.fold_left (B.disj man) B.fls
  | SFile x, SFile y ->
    let acc = ref B.fls in
    Array.iteri
      (fun i xi ->
        let d =
          Array.map2 (B.xor man) xi y.(i)
          |> Array.fold_left (B.disj man) B.fls
        in
        acc := B.disj man !acc d)
      x;
    !acc
  | SScalar _, SFile _ | SFile _, SScalar _ -> B.tru

exception Need_split of B.t

(* Decide a control bit under the current path constraint; [None]
   requests a case split (Burch-Dill style). *)
let decide man pathc bit =
  if B.is_tru bit then Some true
  else if B.is_fls bit then Some false
  else if B.is_fls (B.conj man pathc bit) then Some false
  else if B.is_fls (B.conj man pathc (B.neg man bit)) then Some true
  else None

type path_state = {
  ps_st : sstate;
  ps_fullb : bool array;
  ps_tags : int option array;
  mutable ps_retired : int;
  mutable ps_last_retire : int;
  mutable ps_cycle : int;
}

let copy_path ps =
  let st = Hashtbl.create (Hashtbl.length ps.ps_st) in
  Hashtbl.iter (fun k v -> Hashtbl.replace st k (copy_svalue v)) ps.ps_st;
  {
    ps_st = st;
    ps_fullb = Array.copy ps.ps_fullb;
    ps_tags = Array.copy ps.ps_tags;
    ps_retired = ps.ps_retired;
    ps_last_retire = ps.ps_last_retire;
    ps_cycle = ps.ps_cycle;
  }

let check ?symbolic ?(max_paths = 64) ~instructions (t : Pipeline.Transform.t) =
  Obs.Span.with_span "verify.symsim" @@ fun () ->
  let base = t.Pipeline.Transform.base in
  let machine = t.Pipeline.Transform.machine in
  let n = base.Spec.n_stages in
  let symbolic =
    match symbolic with
    | Some s -> s
    | None ->
      (* Default: visible register files whose symbolic encoding stays
         tractable (a 4096-entry memory would need 100k+ variables). *)
      List.filter_map
        (fun (r : Spec.register) ->
          match r.Spec.kind with
          | Spec.File { addr_bits } when r.Spec.visible ->
            if (1 lsl addr_bits) * r.Spec.width <= 2048 then
              Some r.Spec.reg_name
            else None
          | Spec.File _ | Spec.Simple -> None)
        base.Spec.registers
  in
  let a = { man = B.manager (); next = 0; bit_names = Hashtbl.create 256 } in
  let paths = ref 1 in
  try
    let shared = shared_symbolic a base ~symbolic in
    (* The specification: symbolic sequential run. *)
    let spec = seq_spec_trace a shared base ~instructions in
    let visible_of_stage =
      Array.init n (fun k ->
          List.filter
            (fun (r : Spec.register) -> r.Spec.visible && r.Spec.stage = k)
            base.Spec.registers)
    in
    (* A path ends like a run of the cycle drivers: once any later
       retirement would close a gap over the liveness bound, it cannot
       finish; the first such path makes the outcome [Stopped]. *)
    let bound = Pipeline.Pipesem.liveness_bound ~n_stages:n in
    let mismatch = ref None in
    let stopped = ref None in
    (* One cycle of the pipelined machine under a path constraint.
       [Need_split] is raised before any mutation, so the caller can
       fork from the same state. *)
    let run_cycle pathc ps =
      let overlay : (string, B.t array) Hashtbl.t = Hashtbl.create 64 in
      for k = 0 to n - 1 do
        Hashtbl.replace overlay
          (Pipeline.Transform.full_signal k)
          [| (if k = 0 || ps.ps_fullb.(k) then B.tru else B.fls) |];
        Hashtbl.replace overlay (Pipeline.Transform.ext_signal k) [| B.fls |]
      done;
      let ctx = blaster a ~cycle:ps.ps_cycle ps.ps_st overlay in
      List.iter
        (fun (name, e) ->
          Hashtbl.replace overlay name (Equiv.Blast.expr ctx e))
        t.Pipeline.Transform.signals;
      let control ~what bit =
        ignore what;
        match decide a.man pathc bit with
        | Some b -> b
        | None -> raise (Need_split bit)
      in
      let dhaz =
        Array.init n (fun k ->
            control
              ~what:(Printf.sprintf "dhaz_%d" k)
              (Hashtbl.find overlay t.Pipeline.Transform.stage_dhaz.(k)).(0))
      in
      let mispredict ~stage ~stalled =
        (not stalled)
        && List.exists
             (fun (sp : Pipeline.Fwd_spec.speculation) ->
               sp.Pipeline.Fwd_spec.resolve_stage = stage
               && control ~what:sp.Pipeline.Fwd_spec.spec_label
                    (Equiv.Blast.expr ctx sp.Pipeline.Fwd_spec.mispredict).(0))
             t.Pipeline.Transform.speculations
      in
      let ext = Array.make n false in
      let s = Pipeline.Stall_engine.compute ~fullb:ps.ps_fullb ~dhaz ~ext ~mispredict in
      (* From here on, no splits: mutate freely. *)
      let deepest_rollback =
        let rec find k =
          if k < 0 then None
          else if s.Pipeline.Stall_engine.rollback.(k) then Some k
          else find (k - 1)
        in
        find (n - 1)
      in
      let firing_spec =
        match deepest_rollback with
        | None -> None
        | Some k ->
          List.find_opt
            (fun (sp : Pipeline.Fwd_spec.speculation) ->
              sp.Pipeline.Fwd_spec.resolve_stage = k)
            t.Pipeline.Transform.speculations
      in
      let updates = ref [] in
      for k = 0 to n - 1 do
        if s.Pipeline.Stall_engine.ue.(k) then
          updates := stage_updates a ctx machine ps.ps_st ~stage:k :: !updates
      done;
      (match firing_spec with
      | Some sp ->
        updates :=
          List.concat_map
            (write_updates a ctx machine ps.ps_st)
            sp.Pipeline.Fwd_spec.rollback_writes
          :: !updates
      | None -> ());
      List.iter (apply a ps.ps_st) (List.rev !updates);
      (* Per-retirement comparisons (the Consistency criterion), under
         the path constraint. *)
      let compare_regs ~tag regs =
        if tag + 1 <= instructions && !mismatch = None then
          List.iter
            (fun (r : Spec.register) ->
              match
                ( List.assoc_opt r.Spec.reg_name spec.(tag + 1),
                  Hashtbl.find_opt ps.ps_st r.Spec.reg_name )
              with
              | Some expected, Some got ->
                let diff =
                  B.conj a.man pathc (svalue_diff a.man expected got)
                in
                if not (B.is_fls diff) then begin
                  let sat = Option.get (B.any_sat a.man diff) in
                  let grouped : (string, int) Hashtbl.t = Hashtbl.create 16 in
                  List.iter
                    (fun (v, value) ->
                      if value then
                        match Hashtbl.find_opt a.bit_names v with
                        | Some (display, bit) ->
                          let cur =
                            Option.value ~default:0
                              (Hashtbl.find_opt grouped display)
                          in
                          Hashtbl.replace grouped display (cur lor (1 lsl bit))
                        | None -> ())
                    sat;
                  let assignment =
                    Hashtbl.fold (fun k v acc -> (k, v) :: acc) grouped []
                    |> List.sort compare
                  in
                  mismatch :=
                    Some
                      (Mismatch
                         {
                           instruction = tag;
                           register = r.Spec.reg_name;
                           assignment;
                         })
                end
              | _ -> ())
            regs
      in
      for k = 0 to n - 1 do
        if s.Pipeline.Stall_engine.ue.(k) then
          match ps.ps_tags.(k) with
          | Some tag -> compare_regs ~tag visible_of_stage.(k)
          | None -> ()
      done;
      if s.Pipeline.Stall_engine.ue.(n - 1) then begin
        ps.ps_retired <- ps.ps_retired + 1;
        ps.ps_last_retire <- ps.ps_cycle
      end;
      (match (deepest_rollback, firing_spec) with
      | Some k, Some sp when sp.Pipeline.Fwd_spec.retires ->
        (match ps.ps_tags.(k) with
        | Some tag ->
          compare_regs ~tag (Spec.visible_registers base);
          ps.ps_retired <- ps.ps_retired + 1;
          ps.ps_last_retire <- ps.ps_cycle
        | None -> ())
      | _ -> ());
      let old_tags = Array.copy ps.ps_tags in
      for stg = n - 1 downto 1 do
        ps.ps_tags.(stg) <-
          (if s.Pipeline.Stall_engine.rollback_up.(stg) then None
           else if s.Pipeline.Stall_engine.ue.(stg - 1) then old_tags.(stg - 1)
           else if
             s.Pipeline.Stall_engine.stall.(stg)
             && s.Pipeline.Stall_engine.full.(stg)
           then old_tags.(stg)
           else None)
      done;
      (match (deepest_rollback, firing_spec) with
      | Some k, Some sp ->
        let b = match old_tags.(k) with Some tag -> tag | None -> 0 in
        ps.ps_tags.(0) <-
          Some (b + if sp.Pipeline.Fwd_spec.retires then 1 else 0)
      | _ ->
        if s.Pipeline.Stall_engine.ue.(0) then
          ps.ps_tags.(0) <-
            Some ((match old_tags.(0) with Some tag -> tag | None -> 0) + 1));
      let fullb' = Pipeline.Stall_engine.next_fullb s in
      Array.blit fullb' 0 ps.ps_fullb 0 n;
      ps.ps_cycle <- ps.ps_cycle + 1
    in
    let rec run_path pathc ps =
      if !mismatch <> None || ps.ps_retired >= instructions then ()
      else if
        Pipeline.Pipesem.retirement_gap ~last:ps.ps_last_retire
          ~cycle:ps.ps_cycle
        > bound
      then begin
        if !stopped = None then
          stopped :=
            Some
              (Stopped
                 { cycle = ps.ps_cycle; retired = ps.ps_retired; instructions })
      end
      else
        match run_cycle pathc ps with
        | () -> run_path pathc ps
        | exception Need_split bit ->
          if !paths >= max_paths then
            raise
              (Symbolic_control
                 { cycle = ps.ps_cycle; what = "path budget exhausted" })
          else begin
            incr paths;
            let other = copy_path ps in
            run_path (B.conj a.man pathc bit) ps;
            run_path (B.conj a.man pathc (B.neg a.man bit)) other
          end
    in
    let ps =
      {
        ps_st = initial_state shared machine;
        ps_fullb = Array.make n false;
        ps_tags = Array.make n None;
        ps_retired = 0;
        ps_last_retire = 0;
        ps_cycle = 0;
      }
    in
    ps.ps_tags.(0) <- Some 0;
    run_path B.tru ps;
    match (!mismatch, !stopped) with
    | Some m, _ | None, Some m -> m
    | None, None ->
      Proved
        {
          instructions;
          variables = a.next;
          bdd_nodes = B.node_count a.man;
        }
  with Symbolic_control { cycle; what } ->
    Control_depends_on_data { cycle; what }

let pp_outcome ppf = function
  | Proved { instructions; variables; bdd_nodes } ->
    Format.fprintf ppf
      "proved for all data: %d instructions, %d symbolic variables, %d BDD \
       nodes"
      instructions variables bdd_nodes
  | Mismatch { instruction; register; assignment } ->
    Format.fprintf ppf "MISMATCH at instruction %d register %s under {%s}"
      instruction register
      (String.concat ", "
         (List.filter_map
            (fun (n, v) -> if v <> 0 then Some (Printf.sprintf "%s=%d" n v) else None)
            assignment))
  | Control_depends_on_data { cycle; what } ->
    Format.fprintf ppf "control depends on symbolic data at cycle %d (%s)"
      cycle what
  | Stopped { cycle; retired; instructions } ->
    Format.fprintf ppf
      "NOT PROVED: a path stopped at the liveness bound after %d cycles, %d \
       of %d instructions retired"
      cycle retired instructions
