module Spec = Machine.Spec

type source_kind =
  | From_writer
  | From_chain of string
  | No_source

type source = {
  src_stage : int;
  src_kind : source_kind;
  hit_signal : string;
  cand_signal : string option;
  has_addr_compare : bool;
  conservative : bool;
}

type rule = {
  rule_label : string;
  consumer_stage : int;
  operand_reg : string;
  operand_port : int option;
  writer_stage : int;
  g_signal : string option;
  g_default : Hw.Expr.t;
  dhaz_signal : string;
  sources : source list;
}

type t = {
  base : Spec.t;
  machine : Spec.t;
  options : Fwd_spec.options;
  signals : (string * Hw.Expr.t) list;
  stage_dhaz : string array;
  speculations : Fwd_spec.speculation list;
  rules : rule list;
}

exception Transform_error of string

let err fmt = Format.kasprintf (fun s -> raise (Transform_error s)) fmt
let full_signal j = Printf.sprintf "$full_%d" j
let ext_signal j = Printf.sprintf "$ext_%d" j
let stage_dhaz_signal k = Printf.sprintf "$dhaz_stage_%d" k

(* ------------------------------------------------------------------ *)
(* Signal builder                                                      *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable sigs_rev : (string * Hw.Expr.t) list;
  defined : (string, int) Hashtbl.t;  (* name -> width *)
  mutable extra_regs : Spec.register list;
  mutable extra_writes : (int * Spec.write) list;
  mutable rules_rev : rule list;
  chains : (string, (int * chain_stage) list) Hashtbl.t;
      (* chain head -> per writer-stage info *)
}

and chain_stage = {
  cs_valid_signal : string;  (* valid for the instruction in this stage *)
  cs_inst : string;          (* the chain instance this stage writes *)
}

let new_builder () =
  {
    sigs_rev = [];
    defined = Hashtbl.create 64;
    extra_regs = [];
    extra_writes = [];
    rules_rev = [];
    chains = Hashtbl.create 8;
  }

let def b name expr =
  match Hashtbl.find_opt b.defined name with
  | Some _ -> ()
  | None ->
    let w =
      match Hw.Expr.check expr with
      | Ok w -> w
      | Error msg -> err "internal: signal %s ill-typed: %s" name msg
    in
    Hashtbl.replace b.defined name w;
    b.sigs_rev <- (name, expr) :: b.sigs_rev

let sref b name =
  match Hashtbl.find_opt b.defined name with
  | Some w -> Hw.Expr.input name w
  | None -> err "internal: signal %s referenced before definition" name

(* ------------------------------------------------------------------ *)
(* Valid-bit chains (paper §4.1: Qv.k registers and Q_valid signals)   *)
(* ------------------------------------------------------------------ *)

(* The full instance chain of [member], head (earliest stage) first. *)
let full_chain m member =
  let back = Spec.instance_chain m member in
  let head = List.nth back (List.length back - 1) in
  let rec fwd n acc =
    match Spec.next_instance m n with
    | Some nx -> fwd nx (nx :: acc)
    | None -> List.rev acc
  in
  head :: fwd head []

let find_write_in writes dst =
  List.find_opt (fun (w : Spec.write) -> String.equal w.dst dst) writes

(* Build (once per chain) the valid signals, Qv registers and
   candidate expressions for every stage the chain spans.  [rewritten]
   gives the already-transformed writes of later stages; stages not yet
   processed (the chain head can live in the consumer's own stage) fall
   back to the original description, which is only sound when the write
   enable reads nothing that needs forwarding — checked below. *)
let is_local_name (m : Spec.t) ~stage name =
  (String.length name > 0 && name.[0] = '$')
  || (not (Spec.register_exists m name))
  ||
  let r = Spec.find_register m name in
  r.Spec.stage = stage || r.Spec.stage = stage - 1

let build_chain b m ~rewritten ~original member =
  let chain = full_chain m member in
  let head = List.hd chain in
  match Hashtbl.find_opt b.chains head with
  | Some info -> info
  | None ->
    let width = (Spec.find_register m head).width in
    let info = ref [] in
    let prev_qv = ref None in
    List.iter
      (fun inst ->
        let j = (Spec.find_register m inst).stage in
        (* The instruction in stage j writes instance [inst]; the
           instance it can read was written by stage j-1. *)
        let q_in = (Spec.find_register m inst).prev_instance in
        let write =
          match find_write_in (rewritten j) inst with
          | Some w -> Some w
          | None -> (
            match find_write_in (original j) inst with
            | None -> None
            | Some w ->
              (match w.Spec.guard with
              | None -> ()
              | Some g ->
                List.iter
                  (fun (name, _) ->
                    if not (is_local_name m ~stage:j name) then
                      err
                        "forwarding register %s: its write enable in stage \
                         %d reads %s, which itself needs forwarding; move \
                         the chain head to a later stage"
                        inst j name)
                  (Hw.Expr.inputs g);
                if Hw.Expr.file_reads g <> [] then
                  err
                    "forwarding register %s: its write enable in stage %d \
                     reads a register file"
                    inst j);
              Some w)
        in
        ignore q_in;
        ignore width;
        let we_q =
          match write with
          | None -> Hw.Expr.fls  (* pure shift: never originates here *)
          | Some w -> ( match w.guard with None -> Hw.Expr.tru | Some g -> g)
        in
        let qv_in =
          match !prev_qv with
          | None -> Hw.Expr.fls
          | Some qv -> Hw.Expr.input qv 1
        in
        let valid_name = Printf.sprintf "$valid_%s_%d" head j in
        def b valid_name (Hw.Expr.( ||: ) qv_in we_q);
        (* Pipe the valid bit: Qv.(j+1) := Q_valid^j, clocked with ue_j. *)
        let qv_name = Printf.sprintf "$Qv_%s.%d" head (j + 1) in
        b.extra_regs <-
          {
            Spec.reg_name = qv_name;
            width = 1;
            stage = j;
            kind = Spec.Simple;
            visible = false;
            prev_instance = None;
          }
          :: b.extra_regs;
        b.extra_writes <-
          ( j,
            {
              Spec.dst = qv_name;
              value = sref b valid_name;
              guard = None;
              wr_addr = None;
            } )
          :: b.extra_writes;
        prev_qv := Some qv_name;
        info := (j, { cs_valid_signal = valid_name; cs_inst = inst }) :: !info)
      chain;
    let result = List.rev !info in
    Hashtbl.replace b.chains head result;
    result

(* ------------------------------------------------------------------ *)
(* Precomputed write enable / address derivation                       *)
(* ------------------------------------------------------------------ *)

(* The paper assumes the write enable and write address of R are
   precomputed in an early stage and piped along ([Rwe.j], [Rwa.j]).
   When stage w's write uses a plain piped register for its guard or
   address, we find the instance the instruction in stage [j] carries
   by walking the instance links.  Otherwise the designer supplies an
   override, or the hit over-approximates (conservative). *)
let derive_piped m ~overrides ~actual ~j =
  match List.assoc_opt j overrides with
  | Some e -> (Some e, false)
  | None -> (
    match actual with
    | None -> (Some Hw.Expr.tru, false)
    | Some (Hw.Expr.Const _ as c) -> (Some c, false)
    | Some (Hw.Expr.Input (name, width)) when Spec.register_exists m name -> (
      match Spec.instance_at_stage m name ~consumer_stage:j with
      | Some inst -> (Some (Hw.Expr.input inst width), false)
      | None -> (None, true))
    | Some _ -> (None, true))

(* ------------------------------------------------------------------ *)
(* One forwarding rule (paper §4.1)                                    *)
(* ------------------------------------------------------------------ *)

type operand =
  | Op_scalar of string
  | Op_file of { file : string; addr : Hw.Expr.t; port : int }

let operand_reg = function
  | Op_scalar r -> r
  | Op_file { file; _ } -> file

let find_hint hints ~stage ~operand =
  List.find_opt
    (fun (h : Fwd_spec.hint) ->
      h.h_stage = stage
      &&
      match (h.h_operand, operand) with
      | Fwd_spec.Reg r, Op_scalar r' -> String.equal r r'
      | Fwd_spec.File_port (f, i), Op_file { file; port; _ } ->
        String.equal f file && i = port
      | Fwd_spec.Reg _, Op_file _ | Fwd_spec.File_port _, Op_scalar _ -> false)
    hints

let synth_rule b m (options : Fwd_spec.options) ~rewritten ~original ~hints ~k operand =
  let reg_name = operand_reg operand in
  let r = Spec.find_register m reg_name in
  let w = r.stage in
  if w < k - 1 then
    err
      "stage %d reads %s, which is written by the earlier stage %d: add \
       pipelined instances (step 1 of the recipe)"
      k reg_name w;
  assert (w > k);
  let hint =
    Obs.Span.with_span "transform.hint_resolution" (fun () ->
        find_hint hints ~stage:k ~operand)
  in
  let label =
    let base =
      match hint with
      | Some { Fwd_spec.h_label = Some l; _ } -> l
      | Some _ | None -> (
        match operand with
        | Op_scalar rn -> rn
        | Op_file { file; port; _ } -> Printf.sprintf "%s_p%d" file port)
    in
    Printf.sprintf "%d_%s" k base
  in
  let read_addr =
    match operand with Op_scalar _ -> None | Op_file { addr; _ } -> Some addr
  in
  (* A register with no stage write (e.g. one written only by a
     speculation's rollback, like an exception PC) gets fully
     conservative sources: any full stage ahead raises a data hazard,
     so the read waits until the pipe ahead has drained. *)
  let writer_write = find_write_in (rewritten w) reg_name in
  let we_overrides =
    match hint with Some h -> h.Fwd_spec.h_we_override | None -> []
  in
  let wa_overrides =
    match hint with Some h -> h.Fwd_spec.h_wa_override | None -> []
  in
  let chain_info =
    match (options.mode, hint) with
    | Fwd_spec.Interlock_only, _ -> None
    | Fwd_spec.Full, Some { Fwd_spec.h_chain = Some c; _ } ->
      Some (build_chain b m ~rewritten ~original c, List.hd (full_chain m c))
    | Fwd_spec.Full, (Some { Fwd_spec.h_chain = None; _ } | None) -> None
  in
  (* The value forwarded from a chain stage: what its instruction is
     writing into the chain instance (or what it carries along). *)
  let chain_cand cs =
    let inst = cs.cs_inst in
    let j = (Spec.find_register m inst).Spec.stage in
    let width = (Spec.find_register m inst).Spec.width in
    let q_in = (Spec.find_register m inst).Spec.prev_instance in
    let write =
      match find_write_in (rewritten j) inst with
      | Some w -> Some w
      | None -> find_write_in (original j) inst
    in
    match write with
    | Some ww -> (
      match (ww.Spec.guard, q_in) with
      | None, _ -> ww.Spec.value
      | Some g, Some qi -> Hw.Expr.mux g ww.Spec.value (Hw.Expr.input qi width)
      | Some _, None -> ww.Spec.value)
    | None -> (
      match q_in with
      | Some qi -> Hw.Expr.input qi width
      | None -> Hw.Expr.const_int ~width 0)
  in
  (* Per source stage j in k+1 .. w: hit, candidate, not-ready. *)
  let sources = ref [] in
  let cases = ref [] in        (* (hit, candidate) for the g network *)
  let dhaz_cases = ref [] in   (* (hit, not-ready) for the interlock *)
  for j = k + 1 to w do
    let is_writer = j = w in
    let we_piped, we_conservative =
      match writer_write with
      | None -> (None, true)
      | Some ww ->
        if is_writer then
          (Some (Option.value ~default:Hw.Expr.tru ww.Spec.guard), false)
        else derive_piped m ~overrides:we_overrides ~actual:ww.Spec.guard ~j
    in
    let wa_piped, wa_conservative =
      match (read_addr, writer_write) with
      | None, _ | _, None -> (None, false)
      | Some _, Some ww ->
        if is_writer then (ww.Spec.wr_addr, false)
        else derive_piped m ~overrides:wa_overrides ~actual:ww.Spec.wr_addr ~j
    in
    let hit =
      let full = Hw.Expr.input (full_signal j) 1 in
      let we = match we_piped with Some e -> e | None -> Hw.Expr.tru in
      let addr_match =
        match (read_addr, wa_piped) with
        | Some ra, Some wa -> Hw.Circuits.equality_tester ra wa
        | Some _, None | None, _ -> Hw.Expr.tru
      in
      Hw.Expr.( &&: ) full (Hw.Expr.( &&: ) we addr_match)
    in
    let hit_name = Printf.sprintf "$hit_%s_%d" label j in
    def b hit_name hit;
    let stage_busy j =
      Hw.Expr.( ||: )
        (sref b (stage_dhaz_signal j))
        (Hw.Expr.input (ext_signal j) 1)
    in
    let kind, cand, not_ready =
      match writer_write with
      | None -> (No_source, None, Hw.Expr.tru)
      | Some ww ->
      if is_writer then (From_writer, Some ww.Spec.value, stage_busy w)
      else
        match chain_info with
        | Some (stages, head) -> (
          match List.assoc_opt j stages with
          | Some cs ->
            let valid = sref b cs.cs_valid_signal in
            (* The value is usable if it already sits in a forwarding
               register (the piped valid bit Qv.j is set), or is being
               produced right now by a stage that can complete this
               cycle. *)
            let qv_reg = Printf.sprintf "$Qv_%s.%d" head j in
            let qv =
              if
                List.exists
                  (fun (r : Spec.register) -> String.equal r.reg_name qv_reg)
                  b.extra_regs
              then Hw.Expr.input qv_reg 1
              else Hw.Expr.fls
            in
            let ready =
              Hw.Expr.( ||: ) qv
                (Hw.Expr.( &&: ) valid (Hw.Expr.not_ (stage_busy j)))
            in
            (From_chain head, Some (chain_cand cs), Hw.Expr.not_ ready)
          | None -> (No_source, None, Hw.Expr.tru))
        | None -> (No_source, None, Hw.Expr.tru)
    in
    let cand_name =
      match cand with
      | None -> None
      | Some c ->
        let n = Printf.sprintf "$cand_%s_%d" label j in
        def b n c;
        Some n
    in
    sources :=
      {
        src_stage = j;
        src_kind = kind;
        hit_signal = hit_name;
        cand_signal = cand_name;
        has_addr_compare =
          (match (read_addr, wa_piped) with Some _, Some _ -> true | _ -> false);
        conservative = we_conservative || wa_conservative;
      }
      :: !sources;
    let cand_or_zero =
      match cand_name with
      | Some n -> sref b n
      | None -> Hw.Expr.const_int ~width:r.width 0
    in
    cases := (sref b hit_name, cand_or_zero) :: !cases;
    dhaz_cases := (sref b hit_name, not_ready) :: !dhaz_cases
  done;
  let cases = List.rev !cases in
  let dhaz_cases = List.rev !dhaz_cases in
  let default =
    match operand with
    | Op_scalar rn -> Hw.Expr.input rn r.width
    | Op_file { file; addr; _ } ->
      Hw.Expr.File_read { file; data_width = r.width; addr }
  in
  let g_name, g_expr_opt =
    match options.mode with
    | Fwd_spec.Interlock_only -> (None, None)
    | Fwd_spec.Full ->
      let g = Hw.Circuits.priority_select ~impl:options.impl cases ~default in
      let n = Printf.sprintf "$g_%s" label in
      def b n g;
      (Some n, Some (sref b n))
  in
  let dhaz_expr =
    match options.mode with
    | Fwd_spec.Interlock_only ->
      List.fold_left
        (fun acc (h, _) -> Hw.Expr.( ||: ) acc h)
        Hw.Expr.fls cases
    | Fwd_spec.Full ->
      Hw.Circuits.priority_select ~impl:Hw.Circuits.Chain dhaz_cases
        ~default:Hw.Expr.fls
  in
  (* An operand the instruction does not actually use cannot stall it
     (the muxes still forward; only the interlock is gated). *)
  let dhaz_expr =
    match hint with
    | Some { Fwd_spec.h_needed = Some cond; _ } -> Hw.Expr.( &&: ) cond dhaz_expr
    | Some { Fwd_spec.h_needed = None; _ } | None -> dhaz_expr
  in
  let dhaz_name = Printf.sprintf "$dhaz_%s" label in
  def b dhaz_name dhaz_expr;
  let rule =
    {
      rule_label = label;
      consumer_stage = k;
      operand_reg = reg_name;
      operand_port =
        (match operand with Op_scalar _ -> None | Op_file { port; _ } -> Some port);
      writer_stage = w;
      g_signal = g_name;
      g_default = default;
      dhaz_signal = dhaz_name;
      sources = List.rev !sources;
    }
  in
  b.rules_rev <- rule :: b.rules_rev;
  (g_expr_opt, dhaz_name)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let is_local (m : Spec.t) ~k name =
  let r = Spec.find_register m name in
  r.stage = k || r.stage = k - 1

let run ?(options = Fwd_spec.default_options) ?(hints = [])
    ?(speculations = []) (m : Spec.t) =
  Obs.Span.with_span "transform.run" ~args:[ ("machine", m.machine_name) ]
  @@ fun () ->
  Obs.Span.with_span "transform.validate" (fun () ->
      (match Machine.Validate.run m with
      | [] -> ()
      | issues ->
        err "machine %s is not well-formed: %s" m.machine_name
          (String.concat "; "
             (List.map
                (fun (i : Machine.Validate.issue) ->
                  i.Machine.Validate.where ^ ": " ^ i.Machine.Validate.what)
                issues)));
      List.iter
        (fun (sp : Fwd_spec.speculation) ->
          if sp.resolve_stage < 0 || sp.resolve_stage >= m.n_stages then
            err "speculation %s: resolve stage %d out of range" sp.spec_label
              sp.resolve_stage;
          List.iter
            (fun (w : Spec.write) ->
              if not (Spec.register_exists m w.dst) then
                err "speculation %s: rollback write to unknown register %s"
                  sp.spec_label w.dst)
            sp.rollback_writes)
        speculations);
  let b = new_builder () in
  let rewritten_tbl : (int, Spec.write list) Hashtbl.t = Hashtbl.create 8 in
  let rewritten j = try Hashtbl.find rewritten_tbl j with Not_found -> [] in
  let original j = (Spec.stage_of m j).Spec.writes in
  let stage_dhaz = Array.make m.n_stages "" in
  let spec_out = ref [] in
  Obs.Span.with_span "transform.forwarding_synthesis" (fun () ->
  for k = m.n_stages - 1 downto 0 do
    Obs.Span.with_span (Printf.sprintf "transform.stage_%d" k) @@ fun () ->
    let stage_rule_dhaz = ref [] in
    (* Memoized per-operand synthesis. *)
    let scalar_memo : (string, Hw.Expr.t option) Hashtbl.t = Hashtbl.create 4 in
    let file_memo : (string * Hw.Expr.t, Hw.Expr.t option) Hashtbl.t =
      Hashtbl.create 4
    in
    let port_counter : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let get_scalar name =
      match Hashtbl.find_opt scalar_memo name with
      | Some g -> g
      | None ->
        let g, dh =
          synth_rule b m options ~rewritten ~original ~hints ~k
            (Op_scalar name)
        in
        stage_rule_dhaz := dh :: !stage_rule_dhaz;
        Hashtbl.replace scalar_memo name g;
        g
    in
    let get_file ~file ~addr =
      match Hashtbl.find_opt file_memo (file, addr) with
      | Some g -> g
      | None ->
        let port =
          match Hashtbl.find_opt port_counter file with
          | Some n ->
            Hashtbl.replace port_counter file (n + 1);
            n
          | None ->
            Hashtbl.replace port_counter file 1;
            0
        in
        let g, dh =
          synth_rule b m options ~rewritten ~original ~hints ~k
            (Op_file { file; addr; port })
        in
        stage_rule_dhaz := dh :: !stage_rule_dhaz;
        Hashtbl.replace file_memo (file, addr) g;
        g
    in
    let rewrite_expr e =
      let e =
        Hw.Expr.subst
          (fun name ->
            if String.length name > 0 && name.[0] = '$' then None
            else if not (Spec.register_exists m name) then None
            else if is_local m ~k name then None
            else get_scalar name)
          e
      in
      Hw.Expr.subst_file_read
        (fun ~file ~addr ->
          if not (Spec.register_exists m file) then None
          else if is_local m ~k file then None
          else get_file ~file ~addr)
        e
    in
    let rewrite_write (w : Spec.write) =
      {
        w with
        Spec.value = rewrite_expr w.Spec.value;
        guard = Option.map rewrite_expr w.Spec.guard;
        wr_addr = Option.map rewrite_expr w.Spec.wr_addr;
      }
    in
    let s = Spec.stage_of m k in
    Hashtbl.replace rewritten_tbl k (List.map rewrite_write s.writes);
    (* Speculations resolved in this stage: rewrite their operands with
       this stage's forwarding network. *)
    List.iter
      (fun (sp : Fwd_spec.speculation) ->
        if sp.resolve_stage = k then
          spec_out :=
            {
              sp with
              Fwd_spec.mispredict = rewrite_expr sp.Fwd_spec.mispredict;
              rollback_writes =
                List.map rewrite_write sp.Fwd_spec.rollback_writes;
            }
            :: !spec_out)
      speculations;
    let dhaz_k =
      List.fold_left
        (fun acc n -> Hw.Expr.( ||: ) acc (sref b n))
        Hw.Expr.fls !stage_rule_dhaz
    in
    def b (stage_dhaz_signal k) dhaz_k;
    stage_dhaz.(k) <- stage_dhaz_signal k
  done);
  let machine =
    Obs.Span.with_span "transform.assemble" (fun () ->
        {
          m with
          Spec.registers = m.registers @ List.rev b.extra_regs;
          stages =
            List.map
              (fun (s : Spec.stage) ->
                let extra =
                  List.filter_map
                    (fun (j, w) -> if j = s.index then Some w else None)
                    (List.rev b.extra_writes)
                in
                { s with Spec.writes = rewritten s.index @ extra })
              m.stages;
        })
  in
  {
    base = m;
    machine;
    options;
    signals = List.rev b.sigs_rev;
    stage_dhaz;
    speculations = List.rev !spec_out;
    rules = List.rev b.rules_rev;
  }

(* ------------------------------------------------------------------ *)
(* Structural digest                                                   *)
(* ------------------------------------------------------------------ *)

(* Everything the evaluation engines compile or consume is rendered
   and digested: both machines (registers, stage writes, initial
   values), the synthesized signals in definition order, the hazard
   signal names and the speculation declarations.  Two transforms with
   equal digests compile to behaviourally identical plans and
   sessions, so per-domain session caches can key on the digest and
   survive the caller rebuilding a structurally identical transform.

   File initial values are folded into a cheap rolling hash rather
   than pretty-printed — a 4k-entry memory image must not cost more
   to digest than to reset. *)

let digest_add_expr buf e =
  Buffer.add_string buf (Hw.Expr.to_string e);
  Buffer.add_char buf '\n'

let digest_add_expr_opt buf = function
  | None -> Buffer.add_string buf "-\n"
  | Some e -> digest_add_expr buf e

let digest_add_write buf (w : Spec.write) =
  Buffer.add_string buf ("  -> " ^ w.Spec.dst ^ "\n");
  digest_add_expr buf w.Spec.value;
  digest_add_expr_opt buf w.Spec.guard;
  digest_add_expr_opt buf w.Spec.wr_addr

let digest_add_value buf v =
  match v with
  | Machine.Value.Scalar bv ->
    Buffer.add_string buf
      (Printf.sprintf "s%d:%d" (Hw.Bitvec.width bv) (Hw.Bitvec.to_int bv))
  | Machine.Value.File arr ->
    let h = ref (Array.length arr) in
    Array.iter
      (fun bv ->
        h := ((!h * 31) + ((Hw.Bitvec.width bv * 131) + Hw.Bitvec.to_int bv))
             land max_int)
      arr;
    Buffer.add_string buf (Printf.sprintf "f%d:%d" (Array.length arr) !h)

let digest_add_machine buf (m : Spec.t) =
  Buffer.add_string buf m.Spec.machine_name;
  Buffer.add_string buf (Printf.sprintf "/%d\n" m.Spec.n_stages);
  List.iter
    (fun (r : Spec.register) ->
      Buffer.add_string buf
        (Printf.sprintf "reg %s w%d s%d %s %b %s " r.Spec.reg_name r.Spec.width
           r.Spec.stage
           (match r.Spec.kind with
           | Spec.Simple -> "simple"
           | Spec.File { addr_bits } -> Printf.sprintf "file:%d" addr_bits)
           r.Spec.visible
           (Option.value ~default:"-" r.Spec.prev_instance));
      digest_add_value buf (Spec.initial_value m r);
      Buffer.add_char buf '\n')
    m.Spec.registers;
  List.iter
    (fun (s : Spec.stage) ->
      Buffer.add_string buf
        (Printf.sprintf "stage %d %s\n" s.Spec.index s.Spec.stage_name);
      List.iter (digest_add_write buf) s.Spec.writes)
    m.Spec.stages

let digest (t : t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "options %s %s\n"
       (match t.options.Fwd_spec.mode with
       | Fwd_spec.Full -> "full"
       | Fwd_spec.Interlock_only -> "interlock_only")
       (match t.options.Fwd_spec.impl with
       | Hw.Circuits.Chain -> "chain"
       | Hw.Circuits.Tree -> "tree"
       | Hw.Circuits.Bus -> "bus"));
  Buffer.add_string buf "base\n";
  digest_add_machine buf t.base;
  Buffer.add_string buf "machine\n";
  digest_add_machine buf t.machine;
  List.iter
    (fun (name, e) ->
      Buffer.add_string buf ("sig " ^ name ^ " ");
      digest_add_expr buf e)
    t.signals;
  Array.iter
    (fun name -> Buffer.add_string buf ("dhaz " ^ name ^ "\n"))
    t.stage_dhaz;
  List.iter
    (fun (sp : Fwd_spec.speculation) ->
      Buffer.add_string buf
        (Printf.sprintf "spec %s r%d %b " sp.Fwd_spec.spec_label
           sp.Fwd_spec.resolve_stage sp.Fwd_spec.retires);
      digest_add_expr buf sp.Fwd_spec.mispredict;
      List.iter (digest_add_write buf) sp.Fwd_spec.rollback_writes)
    t.speculations;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let find_rule t ~stage ~operand =
  List.find_opt
    (fun r ->
      r.consumer_stage = stage
      &&
      match (operand, r.operand_port) with
      | Fwd_spec.Reg n, None -> String.equal n r.operand_reg
      | Fwd_spec.File_port (f, i), Some p ->
        String.equal f r.operand_reg && i = p
      | Fwd_spec.Reg _, Some _ | Fwd_spec.File_port _, None -> false)
    t.rules
