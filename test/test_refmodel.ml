(* The ISA golden model: kernel results, delay-slot semantics, subword
   loads and the interrupt machinery. *)

module R = Dlx.Refmodel
module I = Dlx.Isa
module P = Dlx.Progs

let run_prog (p : P.t) =
  let s = R.create ~data:p.P.data ~program:(P.program p) () in
  R.run s ~steps:p.P.dyn_instructions;
  s

let fib n =
  let rec go a b n = if n = 0 then a else go b (a + b) (n - 1) in
  go 0 1 n

let test_fib () =
  let s = run_prog (P.fib 10) in
  (* The loop leaves f(n+1) in r3. *)
  Alcotest.(check int) "fib" (fib 11) s.R.gpr.(3)

let test_memcpy () =
  let p = P.memcpy 8 in
  let s = run_prog p in
  for i = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "word %d" i)
      ((i * 37) + 11)
      s.R.mem.(128 + i)
  done

let test_dot_product () =
  let p = P.dot_product 6 in
  let s = run_prog p in
  let expected = ref 0 in
  for i = 0 to 5 do
    expected := !expected + (i * 7 mod 251 * (i * 13 mod 239))
  done;
  Alcotest.(check int) "dot" !expected s.R.gpr.(10)

let test_bubble_sort () =
  let values = [ 9; 3; 7; 1; 8; 2 ] in
  let s = run_prog (P.bubble_sort values) in
  let sorted = List.sort compare values in
  List.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) v s.R.mem.(64 + i))
    sorted

let test_delay_slot () =
  (* The instruction after a taken branch executes. *)
  let program =
    List.map I.encode
      [
        I.Addi (1, 0, 1);
        I.J 8;              (* at 4: target 4+4+8 = 16 *)
        I.Addi (2, 0, 2);   (* delay slot at 8: executes *)
        I.Addi (3, 0, 3);   (* at 12: skipped *)
        I.Addi (4, 0, 4);   (* at 16: target *)
      ]
  in
  let s = R.create ~program () in
  R.run s ~steps:4;
  Alcotest.(check int) "r1" 1 s.R.gpr.(1);
  Alcotest.(check int) "delay slot ran" 2 s.R.gpr.(2);
  Alcotest.(check int) "skipped" 0 s.R.gpr.(3);
  Alcotest.(check int) "target ran" 4 s.R.gpr.(4)

let test_jal_link () =
  let program = List.map I.encode [ I.Jal 8; I.Nop; I.Nop; I.Nop; I.Nop ] in
  let s = R.create ~program () in
  R.step s;
  (* Link = pc + 4 = address after the delay slot = 8. *)
  Alcotest.(check int) "r31" 8 s.R.gpr.(31)

let test_r0_immutable () =
  let program = List.map I.encode [ I.Addi (0, 0, 5); I.Add (0, 1, 1) ] in
  let s = R.create ~program () in
  R.run s ~steps:2;
  Alcotest.(check int) "r0" 0 s.R.gpr.(0)

let test_subword_loads () =
  let p = P.subword_loads in
  let s = run_prog p in
  (* Cross-check against direct extraction. *)
  let word = 0x807F01FF in
  let b0 = word land 0xFF and b1 = (word lsr 8) land 0xFF in
  let b2 = (word lsr 16) land 0xFF and b3 = (word lsr 24) land 0xFF in
  let sext8 v = if v land 0x80 <> 0 then (v - 0x100) land 0xFFFFFFFF else v in
  let sext16 v = if v land 0x8000 <> 0 then (v - 0x10000) land 0xFFFFFFFF else v in
  let h0 = word land 0xFFFF and h1 = (word lsr 16) land 0xFFFF in
  let word2 = 0x12345678 in
  let expected =
    List.fold_left ( lxor ) 0
      [ sext8 b0; b1; sext8 b2; b3; sext16 h0; h1;
        sext16 (word2 land 0xFFFF); (word2 lsr 16) land 0xFFFF ]
  in
  Alcotest.(check int) "xor of subword loads" expected s.R.gpr.(10);
  Alcotest.(check int) "stored" expected s.R.mem.(68)

let test_strlen () =
  let text = "automated pipeline design" in
  let s = run_prog (P.strlen text) in
  Alcotest.(check int) "length" (String.length text) s.R.gpr.(10)

let test_checksum () =
  let n = 8 in
  let s = run_prog (P.checksum n) in
  let rotl3 x = ((x lsl 3) lor (x lsr 29)) land 0xFFFFFFFF in
  let expected = ref 0 in
  for i = 0 to n - 1 do
    expected := rotl3 (!expected lxor ((i * 2654435761) land 0xFFFFFF))
  done;
  Alcotest.(check int) "checksum" !expected s.R.gpr.(10);
  Alcotest.(check int) "stored" !expected s.R.mem.(108)

let test_overflow_interrupt () =
  let config = { R.with_interrupts = true; sisr = 8 } in
  let p = P.overflow_trap in
  let s = R.create ~data:p.P.data ~program:(P.program p) () in
  R.run ~config s ~steps:p.P.dyn_instructions;
  Alcotest.(check int) "isr count" 3 s.R.mem.(100);
  (* The overflowing adds were aborted. *)
  Alcotest.(check int) "r3 untouched" 0 s.R.gpr.(3);
  Alcotest.(check int) "r6 untouched" 0 s.R.gpr.(6);
  (* The non-faulting instructions completed. *)
  Alcotest.(check int) "r2" 7 s.R.gpr.(2);
  Alcotest.(check int) "r4" 9 s.R.gpr.(4);
  Alcotest.(check int) "r5" 11 s.R.gpr.(5);
  Alcotest.(check int) "r7" 13 s.R.gpr.(7);
  Alcotest.(check int) "sr re-enabled" 1 s.R.sr

let test_trap_cause () =
  let config = { R.with_interrupts = true; sisr = 8 } in
  let program = List.map I.encode [ I.Nop; I.Nop; I.Nop; I.Trap 5 ] in
  let s = R.create ~program () in
  (* skip to the trap at index 3 *)
  R.run ~config s ~steps:4;
  Alcotest.(check int) "cause" (0x20 lor 5) s.R.eca;
  Alcotest.(check int) "sr masked" 0 s.R.sr;
  Alcotest.(check int) "edpc = successor" 16 s.R.edpc;
  Alcotest.(check int) "dpc at handler" 8 s.R.dpc

let test_interrupts_off_by_config () =
  let program = List.map I.encode [ I.Trap 1; I.Addi (1, 0, 9) ] in
  let s = R.create ~program () in
  R.run s ~steps:2;
  Alcotest.(check int) "trap was a nop" 9 s.R.gpr.(1)

let test_wraparound_without_interrupts () =
  let program =
    List.map I.encode
      [ I.Lhi (1, 0x7FFF); I.Ori (1, 1, 0xFFFF); I.Addi (2, 1, 1) ]
  in
  let s = R.create ~program () in
  R.run s ~steps:3;
  Alcotest.(check int) "wraps" 0x80000000 s.R.gpr.(2)

(* A store high in MEM (word 4000), and a probe that skips one
   instruction when that word reads zero. *)
let high_store () =
  P.make "high store" Dlx.Asm.[ Insn (I.Addi (1, 0, 7)); Insn (I.Sw (0, 1, 16000)) ]

let high_probe () =
  P.make "high probe"
    Dlx.Asm.
      [
        Insn (I.Lw (1, 0, 16000));
        Beqz_l (1, "done");
        Insn I.Nop;
        Insn (I.Addi (2, 0, 1));
        Label "done";
      ]

(* [Progs.make] counts on one golden-model state per domain, refilled
   for each program.  A count taken right after a kernel that stores to
   MEM (memcpy, to words 128-135, then a store to word 4000) must equal
   one taken on a fresh state — for every kernel, and for probes that
   branch on words 128 and 4000. *)
let test_counts_on_reused_state () =
  let intr = { R.with_interrupts = true; sisr = 8 } in
  let fresh config (p : P.t) =
    let s = R.create ~data:p.P.data ~program:(P.program p) () in
    let halt = 4 * (Dlx.Asm.words_of p.P.items - 2) in
    while s.R.dpc <> halt do
      R.step ~config s
    done;
    s.R.instret
  in
  List.iter
    (fun (config, (p : P.t)) ->
      let body =
        List.filteri (fun i _ -> i < List.length p.P.items - 3) p.P.items
      in
      ignore (P.memcpy 8);
      ignore (high_store ());
      let again = P.make ~config ~data:p.P.data p.P.prog_name body in
      Alcotest.(check int) p.P.prog_name (fresh config p)
        again.P.dyn_instructions;
      Alcotest.(check int) (p.P.prog_name ^ " at start-up")
        again.P.dyn_instructions p.P.dyn_instructions)
    (List.map (fun p -> (R.default_config, p)) P.all_kernels
    @ [
        (intr, P.overflow_trap);
        ( R.default_config,
          P.make "probe"
            Dlx.Asm.
              [
                Insn (I.Lw (1, 0, 512));
                Beqz_l (1, "done");
                Insn I.Nop;
                Insn (I.Addi (2, 0, 1));
                Label "done";
              ] );
        (R.default_config, high_probe ());
      ])

(* A reset undoes only what the previous program loaded or stored: a
   store high in MEM (word 4000), far from any loaded data, must be
   gone for the next program, and a short program after a long one
   must see no-ops past its end. *)
let test_reset_undoes_stores () =
  let fresh = (high_probe ()).P.dyn_instructions in
  ignore (high_store ());
  let s = R.local_state () in
  Alcotest.(check int) "the store landed" 7 s.R.mem.(4000);
  Alcotest.(check int) "after the store" fresh (high_probe ()).P.dyn_instructions;
  Alcotest.(check int) "the word reads zero again" 0 s.R.mem.(4000);
  ignore (P.bubble_sort [ 5; 4; 3; 2; 1 ]);
  let short = high_probe () in
  Alcotest.(check int) "IMEM past the short program" Dlx.Isa.nop_word
    s.R.imem.(Dlx.Asm.words_of short.P.items);
  Alcotest.(check int) "after a long program" fresh short.P.dyn_instructions

let () =
  Alcotest.run "refmodel"
    [
      ( "kernels",
        [
          Alcotest.test_case "fib" `Quick test_fib;
          Alcotest.test_case "memcpy" `Quick test_memcpy;
          Alcotest.test_case "dot product" `Quick test_dot_product;
          Alcotest.test_case "bubble sort" `Quick test_bubble_sort;
          Alcotest.test_case "subword loads" `Quick test_subword_loads;
          Alcotest.test_case "strlen" `Quick test_strlen;
          Alcotest.test_case "checksum" `Quick test_checksum;
          Alcotest.test_case "a reset undoes stores" `Quick
            test_reset_undoes_stores;
          Alcotest.test_case "counts on a reused state" `Quick
            test_counts_on_reused_state;
        ] );
      ( "control",
        [
          Alcotest.test_case "delay slot" `Quick test_delay_slot;
          Alcotest.test_case "jal link" `Quick test_jal_link;
          Alcotest.test_case "r0 immutable" `Quick test_r0_immutable;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "overflow + trap" `Quick test_overflow_interrupt;
          Alcotest.test_case "trap cause" `Quick test_trap_cause;
          Alcotest.test_case "config off" `Quick test_interrupts_off_by_config;
          Alcotest.test_case "wraparound" `Quick
            test_wraparound_without_interrupts;
        ] );
    ]
