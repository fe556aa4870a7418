module B = Hw.Bdd
module E = Hw.Expr
module V = Hw.Bitvec
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

(* A register's contents.  Values are never mutated (a file write
   builds a new entry array), so snapshots and forked paths share
   them. *)
type svalue =
  | SScalar of Term.t
  | SFile of Term.t array  (* entries *)

type sstate = (string, svalue) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Symbolic state construction                                         *)
(* ------------------------------------------------------------------ *)

type alloc = {
  man : B.man;
  terms : Term.table;
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
      let display = Printf.sprintf "%s[%d]" name e in
      Array.init width (fun b ->
          let v = base + (b * entries) + e in
          Hashtbl.replace a.bit_names v (display, b);
          B.var a.man v))

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
          Hashtbl.replace tbl name
            (SScalar (Term.var a.terms (fresh a ~name ~width:r.Spec.width)))
        | Spec.File { addr_bits } ->
          Hashtbl.replace tbl name
            (SFile
               (Array.map (Term.var a.terms)
                  (fresh_file a ~name ~entries:(1 lsl addr_bits)
                     ~width:r.Spec.width))))
      | exception Not_found ->
        invalid_arg (Printf.sprintf "Symsim: unknown symbolic register %s" name))
    symbolic;
  tbl

let initial_state a shared (m : Spec.t) =
  let st : sstate = Hashtbl.create 32 in
  List.iter
    (fun (r : Spec.register) ->
      let name = r.Spec.reg_name in
      let v =
        match Hashtbl.find_opt shared name with
        | Some sv -> sv
        | None -> (
          match (r.Spec.kind, Spec.initial_value m r) with
          | Spec.Simple, Machine.Value.Scalar bv ->
            SScalar (Term.const a.terms bv)
          | Spec.File _, Machine.Value.File arr ->
            SFile (Array.map (Term.const a.terms) arr)
          | Spec.Simple, Machine.Value.File _
          | Spec.File _, Machine.Value.Scalar _ -> assert false)
      in
      Hashtbl.replace st name v)
    m.Spec.registers;
  st

(* ------------------------------------------------------------------ *)
(* Symbolic evaluation helpers                                         *)
(* ------------------------------------------------------------------ *)

let bit_term a b = Term.const a.terms (V.of_bool b)

(* A 1-bit term's value where every valuation agrees on it.  This
   blasts the term: only decisions call it. *)
let known a t =
  let b = (Term.blast a.terms t).(0) in
  if B.is_tru b then Some true else if B.is_fls b then Some false else None

(* [addr = i] on the address's bits: an address narrower than the
   file selects every entry whose low bits it equals. *)
let selects a addr i =
  Term.binop a.terms E.Eq addr
    (Term.const a.terms (V.make ~width:(Term.width addr) i))

(* [guard] is the constant true or a term whose BDD is not constant. *)
let file_write a entries ~addr ~data ~guard =
  let entries' = Array.copy entries in
  (match Term.value addr with
  | Some c ->
    Array.iteri
      (fun i cur ->
        if Term.selected c i then
          entries'.(i) <- Term.mux a.terms guard data cur)
      entries
  | None ->
    Array.iteri
      (fun i cur ->
        let sel = Term.binop a.terms E.And guard (selects a addr i) in
        match known a sel with
        | Some true -> entries'.(i) <- data
        | Some false -> ()
        | None -> entries'.(i) <- Term.mux a.terms sel data cur)
      entries);
  entries'

(* The term of an expression in state [st], signals from [overlay]. *)
let evaluator a ~cycle (st : sstate) (overlay : (string, Term.t) Hashtbl.t) =
  Term.of_expr a.terms
    ~input:(fun name width ->
      match Hashtbl.find_opt overlay name with
      | Some v -> v
      | None -> (
        match Hashtbl.find_opt st name with
        | Some (SScalar v) ->
          if Term.width v <> width then
            failwith (Printf.sprintf "Symsim: %s width mismatch" name)
          else v
        | Some (SFile _) ->
          failwith (Printf.sprintf "Symsim: %s read as scalar" name)
        | None ->
          raise
            (Symbolic_control { cycle; what = "unknown input " ^ name })))
    ~file:(fun file addr _width ->
      match Hashtbl.find_opt st file with
      | Some (SFile entries) -> Term.read a.terms entries addr
      | Some (SScalar _) | None ->
        failwith (Printf.sprintf "Symsim: unknown file %s" file))

(* ------------------------------------------------------------------ *)
(* Symbolic commit (mirrors Machine.Commit)                            *)
(* ------------------------------------------------------------------ *)

type supdate =
  | USet of string * Term.t
  | UFile of string * Term.t * Term.t * Term.t  (* file, addr, data, guard *)

let write_updates a eval (m : Spec.t) st (w : Spec.write) =
  let r = Spec.find_register m w.Spec.dst in
  (* A guard is a decision: blasted unless constant, and constant when
     its BDD is. *)
  let guard, truth =
    match w.Spec.guard with
    | None -> (bit_term a true, Some true)
    | Some g -> (
      let g = eval g in
      match known a g with
      | Some b -> (bit_term a b, Some b)
      | None -> (g, None))
  in
  match r.Spec.kind with
  | Spec.File _ -> (
    match truth with
    | Some false -> []
    | Some true | None ->
      let addr =
        match w.Spec.wr_addr with
        | Some e -> eval e
        | None -> failwith "Symsim: file write without address"
      in
      [ UFile (w.Spec.dst, addr, eval w.Spec.value, guard) ])
  | Spec.Simple -> (
    let v = eval w.Spec.value in
    let scalar name ~missing =
      match Hashtbl.find_opt st name with
      | Some (SScalar c) -> c
      | _ -> failwith missing
    in
    match (r.Spec.prev_instance, truth) with
    | None, Some false -> []
    | None, Some true -> [ USet (w.Spec.dst, v) ]
    | None, None ->
      let cur = scalar w.Spec.dst ~missing:"Symsim: scalar state missing" in
      [ USet (w.Spec.dst, Term.mux a.terms guard v cur) ]
    | Some p, _ ->
      let prev = scalar p ~missing:"Symsim: prev instance missing" in
      [ USet (w.Spec.dst, Term.mux a.terms guard v prev) ])

let stage_updates a eval (m : Spec.t) st ~stage =
  let s = Spec.stage_of m stage in
  let explicit = List.concat_map (write_updates a eval m st) s.Spec.writes in
  let written = List.map (fun (w : Spec.write) -> w.Spec.dst) s.Spec.writes in
  let shifts =
    List.filter_map
      (fun (r : Spec.register) ->
        match r.Spec.prev_instance with
        | Some p when r.Spec.stage = stage && not (List.mem r.Spec.reg_name written)
          -> (
          match Hashtbl.find_opt st p with
          | Some (SScalar v) -> Some (USet (r.Spec.reg_name, v))
          | _ -> None)
        | Some _ | None -> None)
      m.Spec.registers
  in
  explicit @ shifts

let apply a st updates =
  List.iter
    (fun u ->
      match u with
      | USet (n, v) -> Hashtbl.replace st n (SScalar v)
      | UFile (f, addr, data, guard) -> (
        match Hashtbl.find_opt st f with
        | Some (SFile entries) ->
          Hashtbl.replace st f (SFile (file_write a entries ~addr ~data ~guard))
        | _ -> failwith "Symsim: file state missing"))
    updates

(* ------------------------------------------------------------------ *)
(* The two machines                                                    *)
(* ------------------------------------------------------------------ *)

let seq_spec_trace a shared (m : Spec.t) ~instructions =
  let st = initial_state a shared m in
  let snaps = Array.make (instructions + 1) [] in
  let visible () =
    List.filter_map
      (fun (r : Spec.register) ->
        if r.Spec.visible then
          Some (r.Spec.reg_name, Hashtbl.find st r.Spec.reg_name)
        else None)
      m.Spec.registers
  in
  let no_signals = Hashtbl.create 1 in
  for i = 0 to instructions - 1 do
    snaps.(i) <- visible ();
    for k = 0 to m.Spec.n_stages - 1 do
      let eval = evaluator a ~cycle:(-1) st no_signals in
      apply a st (stage_updates a eval m st ~stage:k)
    done
  done;
  snaps.(instructions) <- visible ();
  snaps

(* Where two values differ, as one BDD.  A term equal to its
   counterpart differs nowhere and is not blasted. *)
let svalue_diff a x y =
  let man = a.man in
  let term_diff s t =
    if s == t then B.fls
    else
      Array.map2 (B.xor man) (Term.blast a.terms s) (Term.blast a.terms t)
      |> Array.fold_left (B.disj man) B.fls
  in
  match (x, y) with
  | SScalar s, SScalar t -> term_diff s t
  | SFile xs, SFile ys ->
    let acc = ref B.fls in
    Array.iteri (fun i s -> acc := B.disj man !acc (term_diff s ys.(i))) xs;
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
  {
    ps_st = Hashtbl.copy ps.ps_st;
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
  let man = B.manager () in
  let a =
    { man; terms = Term.table man; next = 0; bit_names = Hashtbl.create 256 }
  in
  let paths = ref 1 in
  try
    let shared = shared_symbolic a base ~symbolic in
    (* The specification: symbolic sequential run. *)
    let spec =
      Obs.Span.with_span "symsim.spec" @@ fun () ->
      seq_spec_trace a shared base ~instructions
    in
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
      let overlay : (string, Term.t) Hashtbl.t = Hashtbl.create 64 in
      for k = 0 to n - 1 do
        Hashtbl.replace overlay
          (Pipeline.Transform.full_signal k)
          (bit_term a (k = 0 || ps.ps_fullb.(k)));
        Hashtbl.replace overlay
          (Pipeline.Transform.ext_signal k)
          (bit_term a false)
      done;
      let eval = evaluator a ~cycle:ps.ps_cycle ps.ps_st overlay in
      List.iter
        (fun (name, e) -> Hashtbl.replace overlay name (eval e))
        t.Pipeline.Transform.signals;
      (* A control bit is a decision: its term is blasted (a constant
         builds no node) and decided under the path constraint. *)
      let control term =
        let bit = (Term.blast a.terms term).(0) in
        match decide a.man pathc bit with
        | Some b -> b
        | None -> raise (Need_split bit)
      in
      let dhaz =
        Array.init n (fun k ->
            control (Hashtbl.find overlay t.Pipeline.Transform.stage_dhaz.(k)))
      in
      let mispredict ~stage ~stalled =
        (not stalled)
        && List.exists
             (fun (sp : Pipeline.Fwd_spec.speculation) ->
               sp.Pipeline.Fwd_spec.resolve_stage = stage
               && control (eval sp.Pipeline.Fwd_spec.mispredict))
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
          updates := stage_updates a eval machine ps.ps_st ~stage:k :: !updates
      done;
      (match firing_spec with
      | Some sp ->
        updates :=
          List.concat_map
            (write_updates a eval machine ps.ps_st)
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
                let diff = B.conj a.man pathc (svalue_diff a expected got) in
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
        ps_st = initial_state a shared machine;
        ps_fullb = Array.make n false;
        ps_tags = Array.make n None;
        ps_retired = 0;
        ps_last_retire = 0;
        ps_cycle = 0;
      }
    in
    ps.ps_tags.(0) <- Some 0;
    Obs.Span.with_span "symsim.paths" (fun () -> run_path B.tru ps);
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
