type t = {
  prog_name : string;
  items : Asm.item list;
  data : (int * int) list;
  dyn_instructions : int;
}

let program t = Asm.assemble t.items

exception Runaway of string

(* Dynamic instruction count: run the golden model until it reaches the
   halt loop (the "$halt" label sits right after the body).  The
   kernels below are counted at module initialisation and every
   generated sweep point once, so the count refills the domain's
   [Refmodel.local_state] instead of allocating two 4096-word
   memories. *)
let dyn_count ?(config = Refmodel.default_config) ~items ~data () =
  (* Instruction words before the "$halt" label. *)
  let rec body_words acc = function
    | [] -> acc
    | Asm.Label "$halt" :: _ -> acc
    | Asm.Label _ :: rest -> body_words acc rest
    | (Asm.Insn _ | Asm.Beqz_l _ | Asm.Bnez_l _ | Asm.J_l _ | Asm.Jal_l _)
      :: rest -> body_words (acc + 1) rest
  in
  let halt_addr = body_words 0 items * 4 in
  let s = Refmodel.local_state () in
  Refmodel.reset ~data ~program:(Asm.assemble items) s;
  let limit = 200_000 in
  let rec go () =
    if s.Refmodel.dpc = halt_addr then s.Refmodel.instret
    else if s.Refmodel.instret >= limit then
      raise
        (Runaway
           "the program did not reach the halt loop within 200k \
            instructions (runaway control flow?)")
    else begin
      Refmodel.step ~config s;
      go ()
    end
  in
  go ()

let make ?(config = Refmodel.default_config) ?(data = []) prog_name body =
  let items = body @ Asm.halt in
  {
    prog_name;
    items;
    data;
    dyn_instructions = dyn_count ~config ~items ~data ();
  }

open Asm
open Isa

let fib n =
  make (Printf.sprintf "fib_%d" n)
    ([
       Insn (Addi (1, 0, n));
       Insn (Addi (2, 0, 0));
       Insn (Addi (3, 0, 1));
       Beqz_l (1, "done");
       Insn Nop;
       Label "loop";
       Insn (Add (4, 2, 3));
       Insn (Addi (2, 3, 0));
       Insn (Addi (3, 4, 0));
       Insn (Addi (1, 1, -1));
       Bnez_l (1, "loop");
       Insn Nop;
       Label "done";
     ])

let memcpy n =
  let data = List.init n (fun i -> (64 + i, (i * 37) + 11)) in
  make ~data
    (Printf.sprintf "memcpy_%d" n)
    [
      Insn (Addi (1, 0, 256));
      Insn (Addi (2, 0, 512));
      Insn (Addi (3, 0, n));
      Label "loop";
      Insn (Lw (4, 1, 0));
      Insn (Sw (2, 4, 0));
      Insn (Addi (1, 1, 4));
      Insn (Addi (2, 2, 4));
      Insn (Addi (3, 3, -1));
      Bnez_l (3, "loop");
      Insn Nop;
    ]

(* Dot product with a software shift-and-add multiply (the ISA has no
   multiplier): r10 accumulates a[i]*b[i] for 8-bit elements. *)
let dot_product n =
  let data =
    List.init n (fun i -> (64 + i, (i * 7) mod 251))
    @ List.init n (fun i -> (128 + i, (i * 13) mod 239))
  in
  make ~data
    (Printf.sprintf "dot_%d" n)
    [
      Insn (Addi (1, 0, 256));   (* a ptr *)
      Insn (Addi (2, 0, 512));   (* b ptr *)
      Insn (Addi (3, 0, n));     (* count *)
      Insn (Addi (10, 0, 0));    (* accumulator *)
      Label "loop";
      Insn (Lw (4, 1, 0));       (* multiplicand *)
      Insn (Lw (5, 2, 0));       (* multiplier *)
      Insn (Addi (6, 0, 0));     (* product *)
      Beqz_l (5, "mul_done");
      Insn Nop;
      Label "mul_loop";
      Insn (Andi (7, 5, 1));
      Beqz_l (7, "mul_skip");
      Insn Nop;
      Insn (Add (6, 6, 4));
      Label "mul_skip";
      Insn (Slli (4, 4, 1));
      Insn (Srli (5, 5, 1));
      Bnez_l (5, "mul_loop");
      Insn Nop;
      Label "mul_done";
      Insn (Add (10, 10, 6));
      Insn (Addi (1, 1, 4));
      Insn (Addi (2, 2, 4));
      Insn (Addi (3, 3, -1));
      Bnez_l (3, "loop");
      Insn Nop;
    ]

let bubble_sort values =
  let n = List.length values in
  let data = List.mapi (fun i v -> (64 + i, v land 0xFFFF)) values in
  make ~data
    (Printf.sprintf "bsort_%d" n)
    [
      Insn (Addi (1, 0, n));
      Insn (Addi (9, 0, 256));
      Label "outer";
      Insn (Addi (2, 0, 0));       (* swapped flag *)
      Insn (Addi (3, 9, 0));       (* ptr *)
      Insn (Addi (4, 1, -1));      (* inner count *)
      Beqz_l (4, "done");
      Insn Nop;
      Label "inner";
      Insn (Lw (5, 3, 0));
      Insn (Lw (6, 3, 4));
      Insn (Slt (7, 6, 5));
      Beqz_l (7, "noswap");
      Insn Nop;
      Insn (Sw (3, 6, 0));
      Insn (Sw (3, 5, 4));
      Insn (Addi (2, 0, 1));
      Label "noswap";
      Insn (Addi (3, 3, 4));
      Insn (Addi (4, 4, -1));
      Bnez_l (4, "inner");
      Insn Nop;
      Bnez_l (2, "outer");
      Insn Nop;
      Label "done";
    ]

let hazard_dependent_chain n =
  make
    (Printf.sprintf "dep_chain_%d" n)
    (Insn (Addi (1, 0, 1))
    :: List.concat
         (List.init n (fun i ->
              [ Insn (Xori (1, 1, 1 + (i land 7))) ])))

let hazard_load_use n =
  let data = List.init 8 (fun i -> (64 + i, i + 3)) in
  make ~data
    (Printf.sprintf "load_use_%d" n)
    (Insn (Addi (1, 0, 256))
    :: List.concat
         (List.init n (fun i ->
              [
                Insn (Lw (2, 1, 4 * (i land 7)));
                Insn (Add (3, 2, 2));
              ])))

let hazard_independent n =
  make
    (Printf.sprintf "independent_%d" n)
    (List.init n (fun i -> Insn (Addi (1 + (i mod 8), 0, i land 0xFF))))

let branch_heavy n =
  make
    (Printf.sprintf "branches_%d" n)
    [
      Insn (Addi (1, 0, n));
      Label "loop";
      Bnez_l (1, "l2");
      Insn Nop;
      Label "l2";
      Insn (Addi (1, 1, -1));
      Bnez_l (1, "loop");
      Insn Nop;
    ]

let subword_loads =
  let data = [ (64, 0x807F01FF); (65, 0x12345678) ] in
  make ~data "subword_loads"
    [
      Insn (Addi (1, 0, 256));
      Insn (Addi (10, 0, 0));
      Insn (Lb (2, 1, 0));
      Insn (Xor (10, 10, 2));
      Insn (Lbu (2, 1, 1));
      Insn (Xor (10, 10, 2));
      Insn (Lb (2, 1, 2));
      Insn (Xor (10, 10, 2));
      Insn (Lbu (2, 1, 3));
      Insn (Xor (10, 10, 2));
      Insn (Lh (3, 1, 0));
      Insn (Xor (10, 10, 3));
      Insn (Lhu (3, 1, 2));
      Insn (Xor (10, 10, 3));
      Insn (Lh (3, 1, 4));
      Insn (Xor (10, 10, 3));
      Insn (Lhu (3, 1, 6));
      Insn (Xor (10, 10, 3));
      Insn (Sw (1, 10, 16));
    ]

let strlen text =
  (* Pack the string into little-endian words at word 64. *)
  let n = String.length text in
  let data =
    List.init ((n / 4) + 1) (fun w ->
        let byte i = if i < n then Char.code text.[i] else 0 in
        ( 64 + w,
          byte (4 * w)
          lor (byte ((4 * w) + 1) lsl 8)
          lor (byte ((4 * w) + 2) lsl 16)
          lor (byte ((4 * w) + 3) lsl 24) ))
  in
  make ~data
    (Printf.sprintf "strlen_%d" n)
    [
      Insn (Addi (1, 0, 256));
      Insn (Addi (10, 0, 0));
      Label "loop";
      Insn (Lbu (2, 1, 0));
      Beqz_l (2, "done");
      Insn Nop;
      Insn (Addi (10, 10, 1));
      Insn (Addi (1, 1, 1));
      J_l "loop";
      Insn Nop;
      Label "done";
    ]

let checksum n =
  let data = List.init n (fun i -> (64 + i, (i * 2654435761) land 0xFFFFFF)) in
  make ~data
    (Printf.sprintf "checksum_%d" n)
    [
      Insn (Addi (1, 0, 256));
      Insn (Addi (3, 0, n));
      Insn (Addi (10, 0, 0));
      Label "loop";
      Insn (Lw (4, 1, 0));
      Insn (Xor (10, 10, 4));
      (* rotate left by 3: (x << 3) | (x >> 29) *)
      Insn (Slli (5, 10, 3));
      Insn (Srli (6, 10, 29));
      Insn (Or (10, 5, 6));
      Insn (Addi (1, 1, 4));
      Insn (Addi (3, 3, -1));
      Bnez_l (3, "loop");
      Insn Nop;
      Insn (Sw (0, 10, 432));
    ]

let overflow_trap =
  let config = { Refmodel.with_interrupts = true; sisr = 8 } in
  make ~config ~data:[ (100, 0) ] "overflow_trap"
    [
      J_l "main";
      Insn Nop;
      Label "isr";
      (* Count interrupts at data word 100. *)
      Insn (Lw (20, 0, 400));
      Insn (Addi (20, 20, 1));
      Insn (Sw (0, 20, 400));
      Insn Rfe;
      Label "main";
      Insn (Lhi (1, 0x7FFF));
      Insn (Ori (1, 1, 0xFFFF));   (* r1 = max_int *)
      Insn (Addi (2, 0, 7));
      Insn (Addi (3, 1, 1));       (* overflow: aborted, ISR runs *)
      Insn (Addi (4, 0, 9));
      Insn (Trap 5);               (* trap: ISR runs *)
      Insn (Addi (5, 0, 11));
      Insn (Add (6, 1, 1));        (* overflow again *)
      Insn (Addi (7, 0, 13));
    ]

let all_kernels =
  [
    fib 10;
    memcpy 8;
    dot_product 6;
    bubble_sort [ 9; 3; 7; 1; 8; 2 ];
    hazard_dependent_chain 24;
    hazard_load_use 12;
    hazard_independent 24;
    branch_heavy 8;
    subword_loads;
    strlen "automated pipeline design";
    checksum 8;
  ]
