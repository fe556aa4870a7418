(** ISA-level golden model.

    An interpreter of the DLX ISA written independently of the machine
    IR, used to validate the prepared sequential machine description
    itself ("automated verification of sequential machines is
    considered state-of-the-art", paper §7 — here it is testing against
    an independent interpreter).  The interrupt behaviour matches the
    variant machine: overflow / trap / illegal opcode perform JISR when
    interrupts are implemented and enabled. *)

type config = {
  with_interrupts : bool;
  sisr : int;  (** byte address of the interrupt service routine *)
}

val default_config : config
(** No interrupts (the paper's base DLX). *)

type state = {
  mutable pc : int;
  mutable dpc : int;
  gpr : int array;          (** 32 entries, [gpr.(0)] stays 0 *)
  mem : int array;          (** data memory, word-organized *)
  imem : int array;         (** instruction memory, word-organized *)
  mutable sr : int;         (** status register bit 0: interrupts enabled *)
  mutable epc : int;
  mutable edpc : int;
  mutable eca : int;
  mutable instret : int;    (** instructions executed *)
  mutable gpr_written : int;
      (** the register the latest {!step} wrote, [-1] if it wrote none
          (writes to [r0] are discarded and do not count) *)
  mutable stored : int;
      (** the [mem] word index the latest {!step} stored to, [-1] if it
          stored nothing.  With [gpr_written] this tells a caller that
          snapshots the state after every step exactly which entry
          changed, so it can log one write instead of scanning a file
          ({!Seq_dlx.ref_trace}). *)
  mutable loaded_words : int;
      (** [imem] words the last {!reset} loaded (the program's length) *)
  mutable loaded_data : (int * int) list;  (** the [data] it loaded *)
  mutable stores : int array;
      (** the distinct [mem] words stored to since that reset, in the
          prefix of length [n_stores] *)
  mutable n_stores : int;
  store_seen : Bytes.t;  (** one bit per [mem] word: in [stores] *)
}

val mem_words : int
(** [2^12]: size of each memory. *)

val create : ?data:(int * int) list -> program:int list -> unit -> state
(** Program loaded at word 0; [data] is [(word_index, value)]. *)

val reset : ?data:(int * int) list -> program:int list -> state -> unit
(** Refill a state in place to what [create ?data ~program ()]
    returns, without allocating: only the words the previous program
    loaded or {!step} stored are undone, so the memories must change
    only through {!reset} and {!step}. *)

val local_state : unit -> state
(** The calling domain's own state, for a run that {!reset}s it first
    and keeps nothing of it afterwards ({!Progs.dyn_count},
    {!Seq_dlx.ref_trace}): one state per domain instead of two fresh
    4096-word memories per run.  It holds whatever the domain's last
    such run left. *)

val step : ?config:config -> state -> unit
(** Execute one instruction (the one at [dpc]). *)

val run : ?config:config -> state -> steps:int -> unit

val word_index : int -> int
(** Byte address to memory word index (mod memory size). *)
