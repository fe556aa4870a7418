(** The prepared sequential five-stage DLX (paper §4.2).

    Stages: 0 IF, 1 ID, 2 EX, 3 MEM, 4 WB.  The machine reads its two
    GPR operands in the decode stage; the result register [C] has
    pipelined instances [C.3] (written by EX) and [C.4] (written by
    MEM) which serve as the designated forwarding registers — the
    paper's [C:2]/[C:3] under its stage-of-residence naming.  The
    machine uses one branch delay slot, so instruction fetch needs no
    speculation: the fetch address is obtained by ordinary forwarding
    of the [DPC] register from the decode stage.

    Three variants:

    - {!Base} — the paper's case-study machine;
    - {!With_interrupts} — precise interrupts via speculation (§5):
      the machine speculates that no interrupt occurs; the truth is
      known in stage 4, where a misspeculation performs the JISR
      updates through the rollback mechanism;
    - {!Branch_predict} — fetch speculation (§5): the fetch stage
      predicts the next fetch address sequentially ([SPC := SPC + 4])
      instead of using the forwarded [DPC]; the comparison against the
      true address squashes a wrong fetch.  Architecturally identical
      to [Base]. *)

type variant =
  | Base
  | With_interrupts of { sisr : int }
  | Branch_predict

val mem_addr_bits : int
(** 12: both memories hold [2^12] words. *)

(** {b Read-only images.}  {!machine}, {!image} and {!ref_trace} build
    their MEM (and {!machine} and {!image} their IMEM) through bounded
    per-domain memos, so the same program and data yield the {e same
    physical} array.  Resets and checkers rely on that identity
    ({!Machine.State.holds_image}): never mutate a file value obtained
    from these functions. *)

val machine :
  ?data:(int * int) list -> variant -> program:int list -> Machine.Spec.t
(** The prepared sequential machine with the program in instruction
    memory (word 0 onward) and optional data-memory initialization. *)

val hints : variant -> Pipeline.Fwd_spec.hint list
(** The designer input of §4.2: forwarding-register designations
    ([C.3] chain for both GPR operands) plus operand-usage gating. *)

val speculations : variant -> Pipeline.Fwd_spec.speculation list
(** Empty for [Base]; the no-interrupt speculation for
    [With_interrupts]; the next-fetch-address speculation for
    [Branch_predict]. *)

val image :
  ?data:(int * int) list -> program:int list -> unit ->
  (string * Machine.Value.t) list
(** The point-dependent initial values only — IMEM from [program] and
    MEM from [data], exactly as {!machine} initializes them.  The
    [?init] override that drives one compiled machine shape (fixed
    variant and options) across many programs in batched sweeps.
    Read-only: a reset state shares its arrays until the register's
    first write ({!Machine.State.reset}) and remembers them.  The MEM
    value is physically the one {!machine} and {!ref_trace} use for
    the same [data] (on this domain, while the bounded memo keeps it);
    the empty-[data] MEM table is one array shared by all. *)

val transform :
  ?options:Pipeline.Fwd_spec.options ->
  ?data:(int * int) list ->
  variant ->
  program:int list ->
  Pipeline.Transform.t
(** [machine] + [hints] + [speculations] + [Pipeline.Transform.run]. *)

val ref_trace :
  ?data:(int * int) list ->
  variant ->
  program:int list ->
  instructions:int ->
  Machine.Seqsem.trace
(** The specification trace [R_S^i] produced by the ISA golden model
    ({!Refmodel}), in the shape {!Proof_engine.Consistency} consumes.
    Required for the speculation variants, valid for all three.

    Copy-on-write: a snapshot shares every file the step before it
    did not write with its predecessor, and a step that wrote GPR or
    MEM gets a copy of the previous array with the one entry
    {!Refmodel.state} names set — no step scans or deep-copies MEM.
    MEM starts as {!image}'s array for [data], which lets the
    checkers match an untouched data memory by pointer.  Snapshots
    are shared, hence read-only. *)

val disasm :
  reference:Machine.Seqsem.trace -> program:int list -> int -> string option
(** Render instruction tag [i] of the reference run: the word the
    instruction's [DPC] addresses, decoded ({!Isa.to_string}).  Used
    to put disassembly into verification-failure evidence. *)

val visible_names : variant -> string list
