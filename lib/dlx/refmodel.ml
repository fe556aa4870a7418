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
  mutable loaded_words : int;
  mutable loaded_data : (int * int) list;
  mutable stores : int array;
  mutable n_stores : int;
  store_seen : Bytes.t;
}

let mem_words = 1 lsl 12
let mask32 v = v land 0xFFFFFFFF
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v
let word_index addr = (addr lsr 2) land (mem_words - 1)

(* A store logs its word once ([store_seen]: one bit per word), so a
   reset can undo exactly what the last program stored. *)
let note_store s w =
  let byte = Char.code (Bytes.get s.store_seen (w lsr 3)) in
  if byte land (1 lsl (w land 7)) = 0 then begin
    Bytes.set s.store_seen (w lsr 3) (Char.chr (byte lor (1 lsl (w land 7))));
    if s.n_stores = Array.length s.stores then begin
      let grown = Array.make (max 16 (2 * s.n_stores)) 0 in
      Array.blit s.stores 0 grown 0 s.n_stores;
      s.stores <- grown
    end;
    s.stores.(s.n_stores) <- w;
    s.n_stores <- s.n_stores + 1
  end

(* Undo only what the previous program touched — the instruction words
   and data words its reset loaded and the words it stored — then load
   this one: a reset costs the two programs' sizes, not two 4096-word
   refills. *)
let reset ?(data = []) ~program s =
  Array.fill s.imem 0 s.loaded_words Isa.nop_word;
  List.iter (fun (i, _) -> s.mem.(i land (mem_words - 1)) <- 0) s.loaded_data;
  for j = 0 to s.n_stores - 1 do
    let w = s.stores.(j) in
    s.mem.(w) <- 0;
    Bytes.set s.store_seen (w lsr 3) '\000'
  done;
  s.n_stores <- 0;
  let words = ref 0 in
  List.iteri
    (fun i w ->
      if i < mem_words then begin
        s.imem.(i) <- mask32 w;
        words := i + 1
      end)
    program;
  s.loaded_words <- !words;
  List.iter (fun (i, v) -> s.mem.(i land (mem_words - 1)) <- mask32 v) data;
  s.loaded_data <- data;
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
      loaded_words = 0;
      loaded_data = [];
      stores = [||];
      n_stores = 0;
      store_seen = Bytes.make (mem_words / 8) '\000';
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

let set_gpr s r v =
  if r <> 0 then begin
    s.gpr.(r) <- mask32 v;
    s.gpr_written <- r
  end

(* The next fetch after an instruction at [old_pc]'s predecessor: the
   delay slot ([old_pc]) runs next, then [old_pc + 4] or, for a taken
   control transfer, the target. *)
let next s ~old_pc =
  s.dpc <- old_pc;
  s.pc <- mask32 (old_pc + 4)

let jump s ~old_pc target =
  s.dpc <- old_pc;
  s.pc <- mask32 target

let branch s ~old_pc taken target =
  if taken then jump s ~old_pc target else next s ~old_pc

(* "Continue"-type interrupts: the faulting instruction is aborted and
   RFE resumes at its successor (old_pc / old_pc+4). *)
let jisr config s ~old_pc cause =
  s.epc <- mask32 (old_pc + 4);
  s.edpc <- old_pc;
  s.eca <- cause;
  s.sr <- 0;
  s.pc <- mask32 (config.sisr + 4);
  s.dpc <- mask32 config.sisr

let alu s ~old_pc d v =
  set_gpr s d v;
  next s ~old_pc

let alu_ovf config s ~old_pc ~interrupts_on d sum ovf =
  if ovf && interrupts_on then jisr config s ~old_pc 2 else alu s ~old_pc d sum

let slt x y = if signed x < signed y then 1 else 0

let load_to s ~old_pc d addr size sgn =
  set_gpr s d (load s ~addr:(mask32 addr) ~size ~signed:sgn);
  next s ~old_pc

(* The helpers above are top-level functions, not closures over [s],
   and [g] is inlined: a step allocates only its decoded
   instruction. *)
let step ?(config = default_config) s =
  let ir = s.imem.(word_index s.dpc) in
  let insn = Isa.decode ir in
  let old_pc = s.pc and old_dpc = s.dpc in
  s.gpr_written <- -1;
  s.stored <- -1;
  let g r = s.gpr.(r) in
  let interrupts_on = config.with_interrupts && s.sr land 1 = 1 in
  (match insn with
  | None -> if interrupts_on then jisr config s ~old_pc 1 else next s ~old_pc
  | Some i -> (
    match i with
    | Isa.Nop -> next s ~old_pc
    | Isa.Add (d, a, b) ->
      alu_ovf config s ~old_pc ~interrupts_on d (g a + g b)
        (add_overflows (g a) (g b))
    | Isa.Sub (d, a, b) ->
      alu_ovf config s ~old_pc ~interrupts_on d (g a - g b)
        (sub_overflows (g a) (g b))
    | Isa.And (d, a, b) -> alu s ~old_pc d (g a land g b)
    | Isa.Or (d, a, b) -> alu s ~old_pc d (g a lor g b)
    | Isa.Xor (d, a, b) -> alu s ~old_pc d (g a lxor g b)
    | Isa.Sll (d, a, b) -> alu s ~old_pc d (g a lsl (g b land 31))
    | Isa.Srl (d, a, b) -> alu s ~old_pc d (g a lsr (g b land 31))
    | Isa.Sra (d, a, b) -> alu s ~old_pc d (signed (g a) asr (g b land 31))
    | Isa.Slt (d, a, b) -> alu s ~old_pc d (slt (g a) (g b))
    | Isa.Sltu (d, a, b) -> alu s ~old_pc d (if g a < g b then 1 else 0)
    | Isa.Addi (d, a, imm) ->
      alu_ovf config s ~old_pc ~interrupts_on d (g a + mask32 imm)
        (add_overflows (g a) (mask32 imm))
    | Isa.Andi (d, a, imm) -> alu s ~old_pc d (g a land (imm land 0xFFFF))
    | Isa.Ori (d, a, imm) -> alu s ~old_pc d (g a lor (imm land 0xFFFF))
    | Isa.Xori (d, a, imm) -> alu s ~old_pc d (g a lxor (imm land 0xFFFF))
    | Isa.Slti (d, a, imm) -> alu s ~old_pc d (slt (g a) (mask32 imm))
    | Isa.Lhi (d, imm) -> alu s ~old_pc d ((imm land 0xFFFF) lsl 16)
    | Isa.Slli (d, a, sh) -> alu s ~old_pc d (g a lsl sh)
    | Isa.Srli (d, a, sh) -> alu s ~old_pc d (g a lsr sh)
    | Isa.Srai (d, a, sh) -> alu s ~old_pc d (signed (g a) asr sh)
    | Isa.Lw (d, a, off) -> load_to s ~old_pc d (g a + mask32 off) `Word false
    | Isa.Lb (d, a, off) -> load_to s ~old_pc d (g a + mask32 off) `Byte true
    | Isa.Lbu (d, a, off) -> load_to s ~old_pc d (g a + mask32 off) `Byte false
    | Isa.Lh (d, a, off) -> load_to s ~old_pc d (g a + mask32 off) `Half true
    | Isa.Lhu (d, a, off) -> load_to s ~old_pc d (g a + mask32 off) `Half false
    | Isa.Sw (a, src, off) ->
      let w = word_index (mask32 (g a + mask32 off)) in
      s.mem.(w) <- g src;
      s.stored <- w;
      note_store s w;
      next s ~old_pc
    | Isa.Beqz (a, off) -> branch s ~old_pc (g a = 0) (old_dpc + 4 + off)
    | Isa.Bnez (a, off) -> branch s ~old_pc (g a <> 0) (old_dpc + 4 + off)
    | Isa.J off -> jump s ~old_pc (old_dpc + 4 + off)
    | Isa.Jal off ->
      set_gpr s 31 (old_pc + 4);
      jump s ~old_pc (old_dpc + 4 + off)
    | Isa.Jr a -> jump s ~old_pc (g a)
    | Isa.Jalr a ->
      let target = g a in
      set_gpr s 31 (old_pc + 4);
      jump s ~old_pc target
    | Isa.Trap code ->
      if interrupts_on then jisr config s ~old_pc (0x20 lor code)
      else next s ~old_pc
    | Isa.Rfe ->
      if config.with_interrupts then begin
        s.sr <- 1;
        s.pc <- s.epc;
        s.dpc <- s.edpc
      end
      else next s ~old_pc));
  s.instret <- s.instret + 1

let run ?config s ~steps =
  for _ = 1 to steps do
    step ?config s
  done
