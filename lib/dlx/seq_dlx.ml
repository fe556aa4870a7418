module Spec = Machine.Spec
module E = Hw.Expr

type variant =
  | Base
  | With_interrupts of { sisr : int }
  | Branch_predict

let mem_addr_bits = 12

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)
(* ------------------------------------------------------------------ *)

let c32 v = E.const_int ~width:32 v
let c6 v = E.const_int ~width:6 v
let ( &&: ) = E.( &&: )
let ( ||: ) = E.( ||: )
let ( ==: ) = E.( ==: )
let ( +: ) = E.( +: )

let widx addr = E.slice addr ~hi:(mem_addr_bits + 1) ~lo:2

let imem_read addr =
  E.File_read { file = "IMEM"; data_width = 32; addr = widx addr }

let mem_read addr =
  E.File_read { file = "MEM"; data_width = 32; addr = widx addr }

let gpr_read addr = E.File_read { file = "GPR"; data_width = 32; addr }

(* ------------------------------------------------------------------ *)
(* Decode (over IR.1)                                                  *)
(* ------------------------------------------------------------------ *)

let ir = E.input "IR.1" 32
let opcode = E.slice ir ~hi:31 ~lo:26
let func = E.slice ir ~hi:5 ~lo:0
let rs1_field = E.slice ir ~hi:25 ~lo:21
let rs2_field = E.slice ir ~hi:20 ~lo:16
let rd_r_field = E.slice ir ~hi:15 ~lo:11
let imm16 = E.slice ir ~hi:15 ~lo:0
let sext_imm = E.Sext (imm16, 32)
let zext_imm = E.Zext (imm16, 32)
let imm26 = E.Sext (E.slice ir ~hi:25 ~lo:0, 32)
let shamt = E.Zext (E.slice ir ~hi:4 ~lo:0, 32)
let is_op v = opcode ==: c6 v
let is_func v = func ==: c6 v
let is_rtype = is_op Isa.Op.rtype

let rtype_funcs =
  Isa.Func.[ add; sub; and_; or_; xor; sll; srl; sra; slt; sltu ]

let is_rtype_legal =
  is_rtype &&: List.fold_left (fun acc f -> acc ||: is_func f) E.fls rtype_funcs

let is_load =
  Isa.Op.(List.fold_left (fun acc o -> acc ||: is_op o) E.fls [ lw; lb; lbu; lh; lhu ])

let is_store = is_op Isa.Op.sw
let is_beqz = is_op Isa.Op.beqz
let is_bnez = is_op Isa.Op.bnez
let is_branch = is_beqz ||: is_bnez
let is_j = is_op Isa.Op.j
let is_jal = is_op Isa.Op.jal
let is_jr = is_op Isa.Op.jr
let is_jalr = is_op Isa.Op.jalr
let is_jump = is_j ||: is_jal ||: is_jr ||: is_jalr
let is_lhi = is_op Isa.Op.lhi
let is_trap = is_op Isa.Op.trap
let is_rfe = is_op Isa.Op.rfe

let is_itype_alu =
  Isa.Op.(
    List.fold_left
      (fun acc o -> acc ||: is_op o)
      E.fls
      [ addi; andi; ori; xori; slti; lhi; slli; srli; srai ])

let is_legal_insn =
  is_rtype_legal ||: is_itype_alu ||: is_load ||: is_store ||: is_branch
  ||: is_jump ||: is_trap ||: is_rfe

let is_illegal = E.not_ is_legal_insn
let writes_gpr = is_rtype_legal ||: is_itype_alu ||: is_load ||: is_jal ||: is_jalr

let dest =
  E.mux is_rtype rd_r_field
    (E.mux (is_jal ||: is_jalr) (E.const_int ~width:5 31) rs2_field)

let gpr_we_val = writes_gpr &&: E.( <>: ) dest (E.const_int ~width:5 0)

(* ALU operation encoding: 0 add, 1 sub, 2 and, 3 or, 4 xor, 5 sll,
   6 srl, 7 sra, 8 slt, 9 sltu, 10 lhi. *)
let alu_code v = E.const_int ~width:4 v

let alu_op_val =
  let rt f v = (is_rtype &&: is_func f, alu_code v) in
  let it o v = (is_op o, alu_code v) in
  E.mux_cases ~default:(alu_code 0)
    Isa.
      [
        rt Func.sub 1;
        rt Func.and_ 2;
        rt Func.or_ 3;
        rt Func.xor 4;
        rt Func.sll 5;
        rt Func.srl 6;
        rt Func.sra 7;
        rt Func.slt 8;
        rt Func.sltu 9;
        it Op.andi 2;
        it Op.ori 3;
        it Op.xori 4;
        it Op.slti 8;
        it Op.lhi 10;
        it Op.slli 5;
        it Op.srli 6;
        it Op.srai 7;
      ]

let imm_val =
  E.mux_cases ~default:sext_imm
    [
      (is_op Isa.Op.andi ||: is_op Isa.Op.ori ||: is_op Isa.Op.xori, zext_imm);
      (is_op Isa.Op.slli ||: is_op Isa.Op.srli ||: is_op Isa.Op.srai, shamt);
      (is_lhi, zext_imm);
    ]

let ls_size_val =
  E.mux_cases
    ~default:(E.const_int ~width:2 0)
    [
      (is_op Isa.Op.lb ||: is_op Isa.Op.lbu, E.const_int ~width:2 1);
      (is_op Isa.Op.lh ||: is_op Isa.Op.lhu, E.const_int ~width:2 2);
    ]

let ls_signed_val = is_op Isa.Op.lb ||: is_op Isa.Op.lh

(* Arithmetic instructions that can raise overflow: add, addi, sub. *)
let ovf_en_val =
  (is_rtype &&: (is_func Isa.Func.add ||: is_func Isa.Func.sub))
  ||: is_op Isa.Op.addi

(* ------------------------------------------------------------------ *)
(* The machine description                                             *)
(* ------------------------------------------------------------------ *)

let reg ?prev ?(visible = false) name width stage kind =
  {
    Spec.reg_name = name;
    width;
    stage;
    kind;
    visible;
    prev_instance = prev;
  }

let w ?guard ?addr dst value =
  { Spec.dst; value; guard; wr_addr = addr }

(* ------------------------------------------------------------------ *)
(* Initial images                                                      *)
(* ------------------------------------------------------------------ *)

(* Images are read-only initial values: [State.reset] points a file
   register at its image until the register's first write,
   [State.reset_lanes] copies out of them, both remember the physical
   array they were reset from, and [ref_trace] starts its MEM snapshots
   from the same array.  Handing every consumer of one program the
   {e same physical} image is what lets resets skip refill work and
   the consistency checkers skip comparing a file no store has
   touched.  The caches below are therefore never mutated, and their
   results must not be either.

   The all-zero MEM table is shared by every empty-[data] image.
   Eager, not [lazy]: images are built on pool workers and OCaml lazy
   is not domain-safe. *)
let zero_mem =
  Machine.Value.File (Array.make (1 lsl mem_addr_bits) (Hw.Bitvec.zero 32))

(* Per-domain memos, so no locking is needed and pointer stability
   lands where the per-domain session caches live.  An exhaustive
   sweep asks for the same few dozen programs on every query; a
   verified sweep point asks for its data image twice (reference
   trace, then initial values).  Bounded: wiped when they outgrow a
   sweep's alphabet — a wipe costs sharing, never correctness. *)
let imem_memo : (int list, Machine.Value.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let mem_memo : ((int * int) list, Machine.Value.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let memoized key ~limit memo build =
  let memo = Domain.DLS.get memo in
  match Hashtbl.find_opt memo key with
  | Some v -> v
  | None ->
    let v = build key in
    if Hashtbl.length memo >= limit then Hashtbl.reset memo;
    Hashtbl.add memo key v;
    v

let imem_of_program program =
  memoized program ~limit:512 imem_memo (fun program ->
      Machine.Value.file_of_list ~width:32 ~addr_bits:mem_addr_bits
        (List.map (fun v -> Hw.Bitvec.make ~width:32 v) program))

(* The MEM image of [data]: the one builder behind [machine], [image]
   and [ref_trace] (IMEM's is [imem_of_program], behind [machine] and
   [image]).  Fewer entries than IMEM's memo: each holds a 4096-word
   table. *)
let mem_of_data = function
  | [] -> zero_mem
  | data ->
    memoized data ~limit:64 mem_memo (fun data ->
        let arr = Array.make (1 lsl mem_addr_bits) (Hw.Bitvec.zero 32) in
        List.iter
          (fun (i, v) ->
            arr.(i land ((1 lsl mem_addr_bits) - 1)) <-
              Hw.Bitvec.make ~width:32 v)
          data;
        Machine.Value.File arr)

(* The point-dependent part of [machine]'s init — IMEM (the program)
   and MEM (the data image).  Everything else (PC/DPC/SR/SPC and the
   machine structure) depends only on the variant, so sweeps compile
   one shape per variant and rebind these per point. *)
let image ?(data = []) ~program () =
  [ ("IMEM", imem_of_program program); ("MEM", mem_of_data data) ]

let pc = E.input "PC" 32
let dpc = E.input "DPC" 32

let machine ?(data = []) variant ~program =
  let with_intr = match variant with With_interrupts _ -> true | Base | Branch_predict -> false in
  let bp = variant = Branch_predict in
  let ga = gpr_read rs1_field in
  let gb = gpr_read rs2_field in
  (* Next-PC computation (decode).  Branch targets are relative to the
     branch's own address (DPC) + 4. *)
  let cond_taken =
    (is_beqz &&: (ga ==: c32 0)) ||: (is_bnez &&: E.( <>: ) ga (c32 0))
  in
  let taken = cond_taken ||: is_jump in
  let target =
    E.mux (is_jr ||: is_jalr) ga
      (E.mux (is_j ||: is_jal) (dpc +: c32 4 +: imm26) (dpc +: c32 4 +: sext_imm))
  in
  let next_pc = E.mux taken target (pc +: c32 4) in
  let pc_val =
    if with_intr then E.mux is_rfe (E.input "EPC" 32) next_pc else next_pc
  in
  let dpc_val =
    if with_intr then E.mux is_rfe (E.input "EDPC" 32) pc else pc
  in
  (* Execute. *)
  let a = E.input "A.2" 32 in
  let b2 = E.input "B.2" 32 in
  let bsel = E.mux (E.input "alu_src_imm.2" 1) (E.input "imm.2" 32) b2 in
  let aluop = E.input "alu_op.2" 4 in
  let alu_is v = aluop ==: alu_code v in
  let sh5 = E.slice bsel ~hi:4 ~lo:0 in
  let alu_result =
    E.mux_cases
      ~default:(a +: bsel)
      [
        (alu_is 1, E.( -: ) a bsel);
        (alu_is 2, E.Binop (E.And, a, bsel));
        (alu_is 3, E.Binop (E.Or, a, bsel));
        (alu_is 4, E.Binop (E.Xor, a, bsel));
        (alu_is 5, E.Binop (E.Shl, a, sh5));
        (alu_is 6, E.Binop (E.Shr, a, sh5));
        (alu_is 7, E.Binop (E.Sra, a, sh5));
        (alu_is 8, E.Zext (E.Binop (E.Lts, a, bsel), 32));
        (alu_is 9, E.Zext (E.Binop (E.Ltu, a, bsel), 32));
        (alu_is 10, E.Binop (E.Shl, bsel, E.const_int ~width:5 16));
      ]
  in
  let c3_val = E.mux (E.input "sel_link.2" 1) (E.input "link.2" 32) alu_result in
  let sign32 e = E.bit e 31 in
  let sum = a +: bsel in
  let diff = E.( -: ) a bsel in
  let ovf_val =
    let add_ovf =
      (sign32 a ==: sign32 bsel) &&: E.( <>: ) (sign32 sum) (sign32 a)
    in
    let sub_ovf =
      E.( <>: ) (sign32 a) (sign32 bsel) &&: E.( <>: ) (sign32 diff) (sign32 a)
    in
    E.input "ovf_en.2" 1 &&: E.mux (alu_is 1) sub_ovf add_ovf
  in
  (* Memory: shift4load aligner (figure 2). *)
  let mar = E.input "MAR.3" 32 in
  let mem_word = mem_read mar in
  let byte_shift = E.Concat (E.slice mar ~hi:1 ~lo:0, E.const_int ~width:3 0) in
  let half_shift = E.Concat (E.slice mar ~hi:1 ~lo:1, E.const_int ~width:4 0) in
  let byte_raw = E.slice (E.Binop (E.Shr, mem_word, byte_shift)) ~hi:7 ~lo:0 in
  let half_raw = E.slice (E.Binop (E.Shr, mem_word, half_shift)) ~hi:15 ~lo:0 in
  let lsg = E.input "ls_signed.3" 1 in
  let byte_val = E.mux lsg (E.Sext (byte_raw, 32)) (E.Zext (byte_raw, 32)) in
  let half_val = E.mux lsg (E.Sext (half_raw, 32)) (E.Zext (half_raw, 32)) in
  let size = E.input "ls_size.3" 2 in
  let shift4load =
    E.mux_cases ~default:mem_word
      [
        (size ==: E.const_int ~width:2 1, byte_val);
        (size ==: E.const_int ~width:2 2, half_val);
      ]
  in
  let c4_val = E.mux (E.input "is_load.3" 1) shift4load (E.input "C.3" 32) in
  (* Register declarations. *)
  let fetch_addr = if bp then E.input "SPC" 32 else dpc in
  let base_regs =
    [
      reg "IMEM" 32 0 (Spec.File { addr_bits = mem_addr_bits });
      reg "IR.1" 32 0 Spec.Simple;
      reg "PC" 32 1 ~visible:true Spec.Simple;
      reg "DPC" 32 1 ~visible:true Spec.Simple;
      reg "A.2" 32 1 Spec.Simple;
      reg "B.2" 32 1 Spec.Simple;
      reg "imm.2" 32 1 Spec.Simple;
      reg "link.2" 32 1 Spec.Simple;
      reg "alu_op.2" 4 1 Spec.Simple;
      reg "alu_src_imm.2" 1 1 Spec.Simple;
      reg "sel_link.2" 1 1 Spec.Simple;
      reg "is_load.2" 1 1 Spec.Simple;
      reg "is_store.2" 1 1 Spec.Simple;
      reg "ls_size.2" 2 1 Spec.Simple;
      reg "ls_signed.2" 1 1 Spec.Simple;
      reg "gpr_we.2" 1 1 Spec.Simple;
      reg "gpr_wa.2" 5 1 Spec.Simple;
      reg "C.3" 32 2 Spec.Simple;
      reg "MAR.3" 32 2 Spec.Simple;
      reg "smdr.3" 32 2 Spec.Simple;
      reg ~prev:"is_load.2" "is_load.3" 1 2 Spec.Simple;
      reg ~prev:"is_store.2" "is_store.3" 1 2 Spec.Simple;
      reg ~prev:"ls_size.2" "ls_size.3" 2 2 Spec.Simple;
      reg ~prev:"ls_signed.2" "ls_signed.3" 1 2 Spec.Simple;
      reg ~prev:"gpr_we.2" "gpr_we.3" 1 2 Spec.Simple;
      reg ~prev:"gpr_wa.2" "gpr_wa.3" 5 2 Spec.Simple;
      reg ~prev:"C.3" "C.4" 32 3 Spec.Simple;
      reg ~prev:"gpr_we.3" "gpr_we.4" 1 3 Spec.Simple;
      reg ~prev:"gpr_wa.3" "gpr_wa.4" 5 3 Spec.Simple;
      reg "MEM" 32 3 ~visible:true (Spec.File { addr_bits = mem_addr_bits });
      reg "GPR" 32 4 ~visible:true (Spec.File { addr_bits = 5 });
    ]
  in
  let bp_regs = if bp then [ reg "SPC" 32 0 Spec.Simple ] else [] in
  let intr_regs =
    if with_intr then
      [
        reg "pcp.2" 32 1 Spec.Simple;
        reg "intr_id.2" 1 1 Spec.Simple;
        reg "cause_id.2" 6 1 Spec.Simple;
        reg "ovf_en.2" 1 1 Spec.Simple;
        reg "is_rfe.2" 1 1 Spec.Simple;
        reg ~prev:"pcp.2" "pcp.3" 32 2 Spec.Simple;
        reg ~prev:"intr_id.2" "intr_id.3" 1 2 Spec.Simple;
        reg ~prev:"cause_id.2" "cause_id.3" 6 2 Spec.Simple;
        reg ~prev:"is_rfe.2" "is_rfe.3" 1 2 Spec.Simple;
        reg "ovf.3" 1 2 Spec.Simple;
        reg ~prev:"pcp.3" "pcp.4" 32 3 Spec.Simple;
        reg ~prev:"intr_id.3" "intr_id.4" 1 3 Spec.Simple;
        reg ~prev:"cause_id.3" "cause_id.4" 6 3 Spec.Simple;
        reg ~prev:"is_rfe.3" "is_rfe.4" 1 3 Spec.Simple;
        reg ~prev:"ovf.3" "ovf.4" 1 3 Spec.Simple;
        reg "SR" 1 4 ~visible:true Spec.Simple;
        reg "EPC" 32 4 ~visible:true Spec.Simple;
        reg "EDPC" 32 4 ~visible:true Spec.Simple;
        reg "ECA" 32 4 ~visible:true Spec.Simple;
      ]
    else []
  in
  (* The ovf_en.2 control must exist whenever ovf.3 reads it. *)
  let stage0 =
    {
      Spec.index = 0;
      stage_name = "IF";
      writes =
        (w "IR.1" (imem_read fetch_addr)
        :: (if bp then [ w "SPC" (E.input "SPC" 32 +: c32 4) ] else []));
    }
  in
  let stage1 =
    {
      Spec.index = 1;
      stage_name = "ID";
      writes =
        [
          w "A.2" ga;
          w "B.2" gb;
          w "PC" pc_val;
          w "DPC" dpc_val;
          w "imm.2" imm_val;
          w "link.2" (pc +: c32 4);
          w "alu_op.2" alu_op_val;
          w "alu_src_imm.2" is_itype_alu;
          w "sel_link.2" (is_jal ||: is_jalr);
          w "is_load.2" is_load;
          w "is_store.2" is_store;
          w "ls_size.2" ls_size_val;
          w "ls_signed.2" ls_signed_val;
          w "gpr_we.2" gpr_we_val;
          w "gpr_wa.2" dest;
        ]
        @ (if with_intr then
             [
               w "pcp.2" pc;
               w "intr_id.2" (is_illegal ||: is_trap);
               w "cause_id.2"
                 (E.mux is_illegal (c6 1)
                    (E.Binop (E.Or, c6 0x20, E.slice ir ~hi:5 ~lo:0)));
               w "ovf_en.2" ovf_en_val;
               w "is_rfe.2" is_rfe;
             ]
           else []);
    }
  in
  let stage2 =
    {
      Spec.index = 2;
      stage_name = "EX";
      writes =
        [
          w ~guard:(E.not_ (E.input "is_load.2" 1)) "C.3" c3_val;
          w "MAR.3" (a +: E.input "imm.2" 32);
          w "smdr.3" b2;
        ]
        @ (if with_intr then [ w "ovf.3" ovf_val ] else []);
    }
  in
  let stage3 =
    {
      Spec.index = 3;
      stage_name = "MEM";
      writes =
        [
          w "C.4" c4_val;
          w
            ~guard:(E.input "is_store.3" 1)
            ~addr:(widx mar) "MEM" (E.input "smdr.3" 32);
        ];
    }
  in
  let stage4 =
    {
      Spec.index = 4;
      stage_name = "WB";
      writes =
        [
          w
            ~guard:(E.input "gpr_we.4" 1)
            ~addr:(E.input "gpr_wa.4" 5)
            "GPR" (E.input "C.4" 32);
        ]
        @ (if with_intr then
             [ w ~guard:(E.input "is_rfe.4" 1) "SR" E.tru ]
           else []);
    }
  in
  {
    Spec.machine_name =
      (match variant with
      | Base -> "dlx5"
      | With_interrupts _ -> "dlx5_intr"
      | Branch_predict -> "dlx5_bp");
    n_stages = 5;
    registers = base_regs @ bp_regs @ intr_regs;
    stages = [ stage0; stage1; stage2; stage3; stage4 ];
    init =
      [
        ("IMEM", imem_of_program program);
        ("MEM", mem_of_data data);
        ("PC", Machine.Value.scalar (Hw.Bitvec.make ~width:32 4));
        ("DPC", Machine.Value.scalar (Hw.Bitvec.make ~width:32 0));
      ]
      @ (if with_intr then
           [ ("SR", Machine.Value.scalar (Hw.Bitvec.one 1)) ]
         else [])
      @
      if bp then [ ("SPC", Machine.Value.scalar (Hw.Bitvec.make ~width:32 0)) ]
      else [];
  }

(* ------------------------------------------------------------------ *)
(* Designer input: forwarding hints and speculations                   *)
(* ------------------------------------------------------------------ *)

let reads_gpr_a = E.not_ (is_j ||: is_jal ||: is_lhi ||: is_trap ||: is_rfe)
let reads_gpr_b = is_rtype ||: is_store

let hints variant =
  let gpr_hints =
    [
      Pipeline.Fwd_spec.hint ~stage:1 ~label:"GPRa" ~chain:"C.3"
        ~needed:reads_gpr_a
        (Pipeline.Fwd_spec.File_port ("GPR", 0));
      Pipeline.Fwd_spec.hint ~stage:1 ~label:"GPRb" ~chain:"C.3"
        ~needed:reads_gpr_b
        (Pipeline.Fwd_spec.File_port ("GPR", 1));
    ]
  in
  match variant with
  | Base | Branch_predict -> gpr_hints
  | With_interrupts _ ->
    gpr_hints
    @ [
        Pipeline.Fwd_spec.hint ~stage:1 ~needed:is_rfe
          (Pipeline.Fwd_spec.Reg "EPC");
        Pipeline.Fwd_spec.hint ~stage:1 ~needed:is_rfe
          (Pipeline.Fwd_spec.Reg "EDPC");
      ]

let speculations variant =
  match variant with
  | Base -> []
  | With_interrupts { sisr } ->
    [
      {
        Pipeline.Fwd_spec.spec_label = "no_interrupt";
        resolve_stage = 4;
        mispredict =
          E.input "SR" 1
          &&: (E.input "intr_id.4" 1 ||: E.input "ovf.4" 1);
        rollback_writes =
          [
            (* "Continue" semantics: RFE resumes at the faulter's
               successor. *)
            w "EPC" (E.input "pcp.4" 32 +: c32 4);
            w "EDPC" (E.input "pcp.4" 32);
            w "ECA"
              (E.mux (E.input "intr_id.4" 1)
                 (E.Zext (E.input "cause_id.4" 6, 32))
                 (c32 2));
            w "SR" E.fls;
            w "PC" (c32 (sisr + 4));
            w "DPC" (c32 sisr);
          ];
        retires = true;
      };
    ]
  | Branch_predict ->
    [
      {
        Pipeline.Fwd_spec.spec_label = "next_fetch_addr";
        resolve_stage = 0;
        mispredict = E.( <>: ) (E.input "SPC" 32) dpc;
        rollback_writes = [ w "SPC" dpc ];
        retires = false;
      };
    ]

let transform ?options ?data variant ~program =
  Pipeline.Transform.run ?options ~hints:(hints variant)
    ~speculations:(speculations variant)
    (machine ?data variant ~program)

(* ------------------------------------------------------------------ *)
(* Specification trace from the golden model                           *)
(* ------------------------------------------------------------------ *)

let visible_names variant =
  match variant with
  | Base | Branch_predict -> [ "DPC"; "GPR"; "MEM"; "PC" ]
  | With_interrupts _ ->
    [ "DPC"; "ECA"; "EDPC"; "EPC"; "GPR"; "MEM"; "PC"; "SR" ]

(* Copy-on-write (see the interface): [Refmodel] names the one entry
   a step wrote, so no step scans or deep-copies the 4096-word
   memory, and MEM starts as [mem_of_data]'s array — the one the
   simulator is reset from — so checkers can match it by pointer until
   the first store.  The golden model runs on the domain's
   [Refmodel.local_state]: a fresh state is two 4096-word memories,
   more than a short sweep point's whole trace costs, and snapshots
   copy values out of it, so nothing refers to it once the trace
   returns. *)
let ref_trace ?(data = []) variant ~program ~instructions =
  let config =
    match variant with
    | With_interrupts { sisr } -> { Refmodel.with_interrupts = true; sisr }
    | Base | Branch_predict -> Refmodel.default_config
  in
  let s = Refmodel.local_state () in
  Refmodel.reset ~data ~program s;
  let bv32 v = Hw.Bitvec.make ~width:32 v in
  let scalar v = Machine.Value.scalar (bv32 v) in
  let with_entry file i v =
    match file with
    | Machine.Value.File a ->
      let a = Array.copy a in
      a.(i) <- bv32 v;
      Machine.Value.File a
    | Machine.Value.Scalar _ -> invalid_arg "Seq_dlx.ref_trace: scalar file"
  in
  let gpr = ref (Machine.Value.File (Array.make 32 (Hw.Bitvec.zero 32))) in
  let mem = ref (mem_of_data data) in
  (* Name-sorted, like [visible_names]. *)
  let snapshot () =
    match variant with
    | Base | Branch_predict ->
      [
        ("DPC", scalar s.Refmodel.dpc);
        ("GPR", !gpr);
        ("MEM", !mem);
        ("PC", scalar s.Refmodel.pc);
      ]
    | With_interrupts _ ->
      [
        ("DPC", scalar s.Refmodel.dpc);
        ("ECA", scalar s.Refmodel.eca);
        ("EDPC", scalar s.Refmodel.edpc);
        ("EPC", scalar s.Refmodel.epc);
        ("GPR", !gpr);
        ("MEM", !mem);
        ("PC", scalar s.Refmodel.pc);
        ("SR", Machine.Value.scalar (Hw.Bitvec.make ~width:1 s.Refmodel.sr));
      ]
  in
  let snaps = Array.make (instructions + 1) [] in
  for i = 0 to instructions - 1 do
    snaps.(i) <- snapshot ();
    Refmodel.step ~config s;
    let r = s.Refmodel.gpr_written and w = s.Refmodel.stored in
    if r >= 0 then gpr := with_entry !gpr r s.Refmodel.gpr.(r);
    if w >= 0 then mem := with_entry !mem w s.Refmodel.mem.(w)
  done;
  snaps.(instructions) <- snapshot ();
  { Machine.Seqsem.spec_before = snaps; instructions; halted = false }

let disasm ~(reference : Machine.Seqsem.trace) ~program tag =
  let snaps = reference.Machine.Seqsem.spec_before in
  if tag < 0 || tag >= Array.length snaps then None
  else
    match List.assoc_opt "DPC" snaps.(tag) with
    | Some (Machine.Value.Scalar pc) -> (
      match List.nth_opt program (Hw.Bitvec.to_int pc lsr 2) with
      | Some word -> Option.map Isa.to_string (Isa.decode word)
      | None -> None)
    | Some (Machine.Value.File _) | None -> None
