(** Benchmark and test programs for the DLX.

    Each program ends with the halt idiom (a self-jump with a [nop]
    delay slot) so that pipelined over-fetch past its end is harmless.
    [dyn_instructions] is the dynamic instruction count up to the point
    where the program parks in the halt loop, measured on the golden
    model — the natural [stop_after] for simulations. *)

type t = {
  prog_name : string;
  items : Asm.item list;
  data : (int * int) list;     (** initial data memory (word, value) *)
  dyn_instructions : int;
}

val program : t -> int list
(** Assembled instruction words. *)

exception Runaway of string
(** A program did not reach its halt loop within 200k instructions
    (the payload says so). *)

val dyn_count :
  ?config:Refmodel.config -> items:Asm.item list -> data:(int * int) list ->
  unit -> int
(** The dynamic instruction count of [items] (which must contain the
    ["$halt"] label): golden-model steps from reset until [dpc] reaches
    the label, on the domain's {!Refmodel.local_state}.
    @raise Runaway when the halt loop is not reached.
    @raise Asm.Asm_error on an undefined or duplicate label. *)

val make :
  ?config:Refmodel.config -> ?data:(int * int) list -> string ->
  Asm.item list -> t
(** [make name body] appends the halt idiom and measures the dynamic
    instruction count on the golden model ([config] selects the
    interrupt behaviour).  The body must not already contain the
    ["$halt"] label.
    @raise Runaway when the body does not reach the halt loop.
    @raise Asm.Asm_error on an undefined or duplicate label. *)

val fib : int -> t
(** Iterative Fibonacci of [n]; result in r3. *)

val memcpy : int -> t
(** Copy [n] words from word 64 to word 128 via a load/store loop. *)

val dot_product : int -> t
(** Dot product of two [n]-vectors at words 64 and 128; result in r10. *)

val bubble_sort : int list -> t
(** Sorts the list (stored from word 64) in place. *)

val hazard_dependent_chain : int -> t
(** [n] back-to-back dependent ALU instructions: maximal forwarding
    pressure, zero stalls with forwarding, heavy stalls without. *)

val hazard_load_use : int -> t
(** [n] load-use pairs: one interlock stall each even with
    forwarding. *)

val hazard_independent : int -> t
(** [n] independent ALU instructions: CPI 1 even without forwarding
    once the pipe is full. *)

val branch_heavy : int -> t
(** A loop whose body is almost only (taken) branches; stresses the
    delay-slot fetch path and branch prediction. *)

val subword_loads : t
(** Exercises the shift4load aligner: lb/lbu/lh/lhu at all offsets. *)

val strlen : string -> t
(** C-style string length over byte loads; the count ends in r10.
    The string lives at byte address 256. *)

val checksum : int -> t
(** A rotating XOR/ADD checksum over [n] words; result in r10.
    Mixes loads, shifts and ALU dependencies. *)

val overflow_trap : t
(** For the interrupt variant: arithmetic overflow and a TRAP, with an
    ISR that records causes and returns via RFE. *)

val all_kernels : t list
(** The kernels used by the benchmark harness (no interrupt
    programs). *)
