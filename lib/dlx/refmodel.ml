type config = {
  with_interrupts : bool;
  sisr : int;
}

let default_config = { with_interrupts = false; sisr = 0 }

type state = {
  mutable pc : int;
  mutable dpc : int;
  gpr : int array;
  mem : int array;
  imem : int array;
  mutable sr : int;
  mutable epc : int;
  mutable edpc : int;
  mutable eca : int;
  mutable instret : int;
  mutable gpr_written : int;
  mutable stored : int;
}

let mem_words = 1 lsl 12
let mask32 v = v land 0xFFFFFFFF
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v
let word_index addr = (addr lsr 2) land (mem_words - 1)

let reset ?(data = []) ~program s =
  Array.fill s.imem 0 mem_words Isa.nop_word;
  List.iteri (fun i w -> if i < mem_words then s.imem.(i) <- mask32 w) program;
  Array.fill s.mem 0 mem_words 0;
  List.iter (fun (i, v) -> s.mem.(i land (mem_words - 1)) <- mask32 v) data;
  Array.fill s.gpr 0 32 0;
  s.pc <- 4;
  s.dpc <- 0;
  s.sr <- 1;
  s.epc <- 0;
  s.edpc <- 0;
  s.eca <- 0;
  s.instret <- 0;
  s.gpr_written <- -1;
  s.stored <- -1

let create ?data ~program () =
  let s =
    {
      pc = 4;
      dpc = 0;
      gpr = Array.make 32 0;
      mem = Array.make mem_words 0;
      imem = Array.make mem_words Isa.nop_word;
      sr = 1;
      epc = 0;
      edpc = 0;
      eca = 0;
      instret = 0;
      gpr_written = -1;
      stored = -1;
    }
  in
  reset ?data ~program s;
  s

let local_key = Domain.DLS.new_key (fun () -> create ~program:[] ())
let local_state () = Domain.DLS.get local_key

let add_overflows a b =
  let s = signed a + signed b in
  s < -0x80000000 || s > 0x7FFFFFFF

let sub_overflows a b =
  let s = signed a - signed b in
  s < -0x80000000 || s > 0x7FFFFFFF

let load s ~addr ~size ~signed:sgn =
  let word = s.mem.(word_index addr) in
  match size with
  | `Word -> word
  | `Byte ->
    let b = (word lsr (8 * (addr land 3))) land 0xFF in
    if sgn && b land 0x80 <> 0 then mask32 (b - 0x100) else b
  | `Half ->
    let h = (word lsr (16 * ((addr lsr 1) land 1))) land 0xFFFF in
    if sgn && h land 0x8000 <> 0 then mask32 (h - 0x10000) else h

let step ?(config = default_config) s =
  let ir = s.imem.(word_index s.dpc) in
  let insn = Isa.decode ir in
  let old_pc = s.pc and old_dpc = s.dpc in
  s.gpr_written <- -1;
  s.stored <- -1;
  let set_gpr r v =
    if r <> 0 then begin
      s.gpr.(r) <- mask32 v;
      s.gpr_written <- r
    end
  in
  let g r = s.gpr.(r) in
  (* "Continue"-type interrupts: the faulting instruction is aborted
     and RFE resumes at its successor (old_pc / old_pc+4). *)
  let jisr cause =
    s.epc <- mask32 (old_pc + 4);
    s.edpc <- old_pc;
    s.eca <- cause;
    s.sr <- 0;
    s.pc <- mask32 (config.sisr + 4);
    s.dpc <- mask32 config.sisr
  in
  let interrupts_on = config.with_interrupts && s.sr land 1 = 1 in
  let normal ?(taken = false) ?(target = 0) () =
    s.dpc <- old_pc;
    s.pc <- (if taken then mask32 target else mask32 (old_pc + 4))
  in
  let alu_op r f a b = set_gpr r (f a b); normal () in
  let alu_ovf r sum ovf =
    if ovf && interrupts_on then jisr 2
    else begin
      set_gpr r sum;
      normal ()
    end
  in
  (match insn with
  | None -> if interrupts_on then jisr 1 else normal ()
  | Some i -> (
    match i with
    | Isa.Nop -> normal ()
    | Isa.Add (d, a, b) -> alu_ovf d (g a + g b) (add_overflows (g a) (g b))
    | Isa.Sub (d, a, b) -> alu_ovf d (g a - g b) (sub_overflows (g a) (g b))
    | Isa.And (d, a, b) -> alu_op d ( land ) (g a) (g b)
    | Isa.Or (d, a, b) -> alu_op d ( lor ) (g a) (g b)
    | Isa.Xor (d, a, b) -> alu_op d ( lxor ) (g a) (g b)
    | Isa.Sll (d, a, b) -> alu_op d (fun x y -> x lsl (y land 31)) (g a) (g b)
    | Isa.Srl (d, a, b) -> alu_op d (fun x y -> x lsr (y land 31)) (g a) (g b)
    | Isa.Sra (d, a, b) ->
      alu_op d (fun x y -> signed x asr (y land 31)) (g a) (g b)
    | Isa.Slt (d, a, b) ->
      alu_op d (fun x y -> if signed x < signed y then 1 else 0) (g a) (g b)
    | Isa.Sltu (d, a, b) -> alu_op d (fun x y -> if x < y then 1 else 0) (g a) (g b)
    | Isa.Addi (d, a, imm) ->
      alu_ovf d (g a + mask32 imm) (add_overflows (g a) (mask32 imm))
    | Isa.Andi (d, a, imm) -> alu_op d ( land ) (g a) (imm land 0xFFFF)
    | Isa.Ori (d, a, imm) -> alu_op d ( lor ) (g a) (imm land 0xFFFF)
    | Isa.Xori (d, a, imm) -> alu_op d ( lxor ) (g a) (imm land 0xFFFF)
    | Isa.Slti (d, a, imm) ->
      alu_op d (fun x y -> if signed x < signed y then 1 else 0) (g a) (mask32 imm)
    | Isa.Lhi (d, imm) -> alu_op d (fun _ y -> (y land 0xFFFF) lsl 16) 0 imm
    | Isa.Slli (d, a, sh) -> alu_op d (fun x y -> x lsl y) (g a) sh
    | Isa.Srli (d, a, sh) -> alu_op d (fun x y -> x lsr y) (g a) sh
    | Isa.Srai (d, a, sh) -> alu_op d (fun x y -> signed x asr y) (g a) sh
    | Isa.Lw (d, a, off) ->
      set_gpr d (load s ~addr:(mask32 (g a + mask32 off)) ~size:`Word ~signed:false);
      normal ()
    | Isa.Lb (d, a, off) ->
      set_gpr d (load s ~addr:(mask32 (g a + mask32 off)) ~size:`Byte ~signed:true);
      normal ()
    | Isa.Lbu (d, a, off) ->
      set_gpr d (load s ~addr:(mask32 (g a + mask32 off)) ~size:`Byte ~signed:false);
      normal ()
    | Isa.Lh (d, a, off) ->
      set_gpr d (load s ~addr:(mask32 (g a + mask32 off)) ~size:`Half ~signed:true);
      normal ()
    | Isa.Lhu (d, a, off) ->
      set_gpr d (load s ~addr:(mask32 (g a + mask32 off)) ~size:`Half ~signed:false);
      normal ()
    | Isa.Sw (a, src, off) ->
      let w = word_index (mask32 (g a + mask32 off)) in
      s.mem.(w) <- g src;
      s.stored <- w;
      normal ()
    | Isa.Beqz (a, off) ->
      normal ~taken:(g a = 0) ~target:(old_dpc + 4 + off) ()
    | Isa.Bnez (a, off) ->
      normal ~taken:(g a <> 0) ~target:(old_dpc + 4 + off) ()
    | Isa.J off -> normal ~taken:true ~target:(old_dpc + 4 + off) ()
    | Isa.Jal off ->
      set_gpr 31 (old_pc + 4);
      normal ~taken:true ~target:(old_dpc + 4 + off) ()
    | Isa.Jr a -> normal ~taken:true ~target:(g a) ()
    | Isa.Jalr a ->
      let target = g a in
      set_gpr 31 (old_pc + 4);
      normal ~taken:true ~target ()
    | Isa.Trap code -> if interrupts_on then jisr (0x20 lor code) else normal ()
    | Isa.Rfe ->
      if config.with_interrupts then begin
        s.sr <- 1;
        s.pc <- s.epc;
        s.dpc <- s.edpc
      end
      else normal ()));
  s.instret <- s.instret + 1

let run ?config s ~steps =
  for _ = 1 to steps do
    step ?config s
  done
