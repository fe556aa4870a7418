module Isa = Dlx.Isa
module Asm = Dlx.Asm
module Progs = Dlx.Progs
module Refmodel = Dlx.Refmodel

type profile = {
  alu_frac : float;
  load_frac : float;
  store_frac : float;
  branch_frac : float;
  taken_frac : float;
  dependency_bias : float;
  call_frac : float;
}

let typical =
  {
    alu_frac = 0.50;
    load_frac = 0.20;
    store_frac = 0.10;
    branch_frac = 0.15;
    taken_frac = 0.6;
    dependency_bias = 0.4;
    call_frac = 0.05;
  }

let alu_only ~dependency_bias =
  {
    alu_frac = 1.0;
    load_frac = 0.0;
    store_frac = 0.0;
    branch_frac = 0.0;
    taken_frac = 0.0;
    dependency_bias;
    call_frac = 0.0;
  }

let memory_heavy =
  {
    alu_frac = 0.30;
    load_frac = 0.40;
    store_frac = 0.20;
    branch_frac = 0.10;
    taken_frac = 0.5;
    dependency_bias = 0.6;
    call_frac = 0.0;
  }

let branch_heavy ~taken_frac =
  {
    alu_frac = 0.45;
    load_frac = 0.10;
    store_frac = 0.05;
    branch_frac = 0.40;
    taken_frac;
    dependency_bias = 0.3;
    call_frac = 0.0;
  }

let with_branch_frac p f =
  let rest = 1.0 -. f in
  let scale = rest /. (p.alu_frac +. p.load_frac +. p.store_frac) in
  {
    p with
    alu_frac = p.alu_frac *. scale;
    load_frac = p.load_frac *. scale;
    store_frac = p.store_frac *. scale;
    branch_frac = f;
  }

(* A small deterministic PRNG (xorshift), independent of the stdlib
   Random state. *)
type rng = { mutable s : int }

let rng_make seed = { s = (seed * 2654435761) lor 1 }

let rng_bits r =
  let s = r.s in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  r.s <- s land max_int;
  r.s

let rng_float r = float_of_int (rng_bits r land 0xFFFFFF) /. 16777216.0
let rng_int r n = if n <= 0 then 0 else rng_bits r mod n

let generate ~seed ~length profile =
  let rng = rng_make seed in
  let last_dest = ref 2 in
  let pick_src () =
    if rng_float rng < profile.dependency_bias then !last_dest
    else 2 + rng_int rng 13
  in
  let pick_dest () =
    let d = 2 + rng_int rng 13 in
    last_dest := d;
    d
  in
  let alu () =
    (* Sources first: the bias refers to the previous instruction's
       destination, not this one's. *)
    let a = pick_src () in
    let b = pick_src () in
    let d = pick_dest () in
    match rng_int rng 8 with
    | 0 -> Isa.Add (d, a, b)
    | 1 -> Isa.Sub (d, a, b)
    | 2 -> Isa.And (d, a, b)
    | 3 -> Isa.Or (d, a, b)
    | 4 -> Isa.Xor (d, a, b)
    | 5 -> Isa.Slt (d, a, b)
    | 6 -> Isa.Addi (d, a, rng_int rng 64)
    | _ -> Isa.Xori (d, a, rng_int rng 256)
  in
  let items = ref [] in
  let label_counter = ref 0 in
  let emit i = items := Asm.Insn i :: !items in
  let count = ref 0 in
  (* A few leaf subroutines, placed after the halt, returning via jr. *)
  let n_funcs = if profile.call_frac > 0.0 then 3 else 0 in
  while !count < length do
    let x = rng_float rng in
    let p = profile in
    if n_funcs > 0 && x < p.call_frac && length - !count > 2 then begin
      items := Asm.Jal_l (Printf.sprintf "F%d" (rng_int rng n_funcs)) :: !items;
      emit Isa.Nop;
      count := !count + 2
    end
    else if
      x < p.call_frac +. p.branch_frac
      && p.branch_frac > 0.0 && length - !count > 4
    then begin
      (* A forward skip over 1..2 instructions; taken-ness is chosen by
         branching on r0 (known zero) one way or the other, with an
         occasional data-dependent branch. *)
      incr label_counter;
      let l = Printf.sprintf "L%d" !label_counter in
      let taken = rng_float rng < p.taken_frac in
      let data_dep = rng_float rng < 0.25 in
      let branch =
        if data_dep then
          if taken then Asm.Beqz_l (0, l)  (* r0 = 0: taken *)
          else Asm.Bnez_l (pick_src (), l) (* may or may not be taken *)
        else if taken then Asm.Beqz_l (0, l)
        else Asm.Bnez_l (0, l)
      in
      items := branch :: !items;
      emit Isa.Nop;  (* delay slot *)
      let skipped = 1 + rng_int rng 2 in
      for _ = 1 to skipped do
        emit (alu ())
      done;
      items := Asm.Label l :: !items;
      count := !count + 2 + skipped
    end
    else if x < p.call_frac +. p.branch_frac +. p.load_frac then begin
      let d = pick_dest () in
      let kind = rng_int rng 4 in
      let off = 4 * rng_int rng 48 in
      emit
        (match kind with
        | 0 -> Isa.Lw (d, 1, off)
        | 1 -> Isa.Lb (d, 1, off + rng_int rng 4)
        | 2 -> Isa.Lbu (d, 1, off + rng_int rng 4)
        | _ -> Isa.Lh (d, 1, off + (2 * rng_int rng 2)));
      incr count
    end
    else if
      x < p.call_frac +. p.branch_frac +. p.load_frac +. p.store_frac
    then begin
      emit (Isa.Sw (1, pick_src (), 4 * rng_int rng 48));
      incr count
    end
    else begin
      emit (alu ());
      incr count
    end
  done;
  let funcs =
    List.concat
      (List.init n_funcs (fun f ->
           Asm.Label (Printf.sprintf "F%d" f)
           :: (List.init (1 + (f mod 2)) (fun _ -> Asm.Insn (alu ()))
              @ [ Asm.Insn (Isa.Jr 31); Asm.Insn Isa.Nop ])))
  in
  let body = Asm.Insn (Isa.Addi (1, 0, 256)) :: List.rev !items in
  let data = List.init 64 (fun i -> (64 + i, (i * 97) land 0xFFF)) in
  (* Leaf functions live after the halt so straight-line execution
     never falls into them. *)
  let items = body @ Asm.halt @ funcs in
  {
    Progs.prog_name = Printf.sprintf "rand_s%d_n%d" seed length;
    items;
    data;
    dyn_instructions = Progs.dyn_count ~items ~data ();
  }

(* Interrupt-stress generation: the same body generator, wrapped in an
   ISR template, with traps and overflow-prone arithmetic mixed in. *)
let generate_with_interrupts ~seed ~length ~sisr profile =
  assert (sisr = 8);
  let rng = rng_make (seed lxor 0x5EED) in
  (* Calls are disabled here: the body is re-wrapped around an ISR, and
     the leaf functions would be separated from their call sites. *)
  let base = generate ~seed ~length { profile with call_frac = 0.0 } in
  (* Strip the prologue-less body: take base.items up to the halt. *)
  let rec body = function
    | [] -> []
    | Asm.Label "$halt" :: _ -> []
    | item :: rest -> item :: body rest
  in
  let spiced =
    List.concat_map
      (fun item ->
        match item with
        | Asm.Insn (Isa.Addi (d, _, _)) when d >= 2 && rng_float rng < 0.10 ->
          (* Replace with guaranteed-overflow arithmetic: max_int +
             max_int.  The add is aborted by the interrupt, so [d]
             keeps the large value and may overflow again later. *)
          [
            Asm.Insn (Isa.Lhi (d, 0x7FFF));
            Asm.Insn (Isa.Ori (d, d, 0xFFFF));
            Asm.Insn (Isa.Add (d, d, d));
          ]
        | Asm.Insn _ when rng_float rng < 0.05 ->
          [ item; Asm.Insn (Isa.Trap (rng_int rng 8)) ]
        | _ -> [ item ])
      (body base.Progs.items)
  in
  let items =
    [ Asm.J_l "$main"; Asm.Insn Isa.Nop; Asm.Label "$isr";
      Asm.Insn (Isa.Lw (20, 0, 400)); Asm.Insn (Isa.Addi (20, 20, 1));
      Asm.Insn (Isa.Sw (0, 20, 400)); Asm.Insn Isa.Rfe; Asm.Label "$main" ]
    @ spiced
  in
  let config = { Refmodel.with_interrupts = true; sisr } in
  Progs.make ~config ~data:base.Progs.data
    (Printf.sprintf "rand_intr_s%d_n%d" seed length)
    items
