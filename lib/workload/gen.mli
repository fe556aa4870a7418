(** Random DLX program generation with controllable hazard structure.

    Programs are straight-line with forward skips only, so they always
    terminate; control flow mixes always-taken and never-taken branches
    (on [r0]) with data-dependent branches on computed registers.  The
    dependency bias controls how often an operand is the most recently
    written register — the knob that turns forwarding hits and load-use
    interlocks on and off. *)

type profile = {
  alu_frac : float;      (** fraction of plain ALU instructions *)
  load_frac : float;
  store_frac : float;
  branch_frac : float;   (** remainder is filled with ALU ops *)
  taken_frac : float;    (** fraction of branches that are taken *)
  dependency_bias : float;
      (** probability that a source operand is the previous
          instruction's destination (1.0 = a dependent chain) *)
  call_frac : float;
      (** fraction of instructions that become subroutine calls
          ([jal] to one of a few generated leaf functions returning via
          [jr r31]) — exercises the link-register forwarding path *)
}

val typical : profile
(** A SPEC-flavoured mix: 55 % ALU, 20 % loads, 10 % stores, 15 %
    branches (60 % taken), dependency bias 0.4. *)

val alu_only : dependency_bias:float -> profile

val memory_heavy : profile

val branch_heavy : taken_frac:float -> profile

val with_branch_frac : profile -> float -> profile

val generate : seed:int -> length:int -> profile -> Dlx.Progs.t
(** A deterministic program of roughly [length] instructions (plus a
    short prologue and the halt idiom).  The same seed always yields
    the same program.  [dyn_instructions] is counted by
    {!Dlx.Progs.dyn_count}.
    @raise Dlx.Progs.Runaway if the program never reaches its halt
    loop (forward skips and leaf calls always do). *)

val generate_with_interrupts :
  seed:int -> length:int -> sisr:int -> profile -> Dlx.Progs.t
(** Like {!generate}, but for the precise-interrupt machine: the
    program starts with a jump over an interrupt service routine at
    [sisr] (which counts interrupts in data word 100 and returns via
    RFE), and the body is seeded with TRAP instructions and
    overflow-prone arithmetic (operands near [max_int]) so the
    rollback path fires many times.  The dynamic instruction count is
    measured with interrupts enabled. *)
