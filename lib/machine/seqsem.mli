(** Sequential reference semantics (paper §2, table 1).

    The prepared sequential machine executes one instruction at a time
    by enabling the update-enable signals [ue_0, ue_1, ..., ue_{n-1}]
    round robin: stage [k] of instruction [I_i] runs in cycle
    [i*n + k].  This machine "behaves as desired" by assumption and
    serves as the reference for the correctness proof: the trace of
    programmer-visible states [R_S^i] (the correct value of [R] right
    before the execution of instruction [I_i]) is recorded here and
    consumed by the data-consistency checker. *)

(** {1 Golden traces}

    A trace holds the visible state [R_S^i] of every instruction
    boundary [i = 0 .. instructions] {e positionally}: the visible
    registers in one fixed order (name-sorted), a raw-int column per
    scalar register, and per register file its starting contents plus
    a log of the (entry, value) writes of each instruction.  A file's
    [R_S^i] is its start with the writes of instructions [0 .. i-1]
    applied — nothing is copied per instruction, and a checker
    compares a file only where either side wrote. *)

type file_column = private {
  fc_width : int;
  fc_start : Hw.Bitvec.t array;
      (** [R_S^0]'s entries: read-only, and possibly an image the
          machine under test is reset from *)
  fc_bounds : int array;
      (** length [instructions + 1]: writes [fc_bounds.(i) ..
          fc_bounds.(i+1) - 1] are instruction [i]'s, so the writes
          before [R_S^i] are those below [fc_bounds.(i)] *)
  fc_entries : int array;  (** per write: the entry written *)
  fc_values : int array;  (** per write: the raw value written *)
  fc_written : int array;  (** the distinct entries written, ascending *)
  fc_groups : int array;
      (** length [D + 1] for [D] written entries: the writes of
          [fc_written.(d)] are [fc_writes.(fc_groups.(d)) ..
          fc_writes.(fc_groups.(d+1) - 1)] *)
  fc_writes : int array;  (** the writes' positions, by entry, ascending *)
}

type column =
  | Scalar_column of { sc_width : int; sc_values : int array }
      (** [sc_values.(i)]: the raw value in [R_S^i] *)
  | File_column of file_column

type trace = {
  registers : string array;  (** the visible registers, name-sorted *)
  columns : column array;  (** [columns.(j)] is [registers.(j)]'s *)
  instructions : int;  (** number of instructions executed *)
  halted : bool;  (** stopped because the halt predicate held *)
}

val file_column :
  width:int ->
  start:Hw.Bitvec.t array ->
  bounds:int array ->
  entries:int array ->
  values:int array ->
  file_column
(** A file column from its start and write log ([entries] and [values]
    of equal length, [bounds] as {!fc_bounds}); derives the distinct
    written entries. *)

val find_written : file_column -> int -> int
(** The index [d] of an entry in {!fc_written}, or [-1] if no
    instruction writes it (binary search). *)

val written_before : file_column -> int -> int -> bool
(** [written_before fc d i]: an instruction before [i] writes entry
    [fc_written.(d)]. *)

val entry_before : file_column -> int -> int -> int
(** [entry_before fc d i]: the raw value of entry [fc_written.(d)] in
    [R_S^i] — its last write before instruction [i] (binary search),
    else its start. *)

val column_value : column -> int -> Value.t
(** The column's register in [R_S^i], rebuilt (a file: its start with
    the writes before [i] applied). *)

val column_of : trace -> string -> column option
(** The named register's column; [None] when the trace holds no such
    register. *)

val value_before : trace -> string -> int -> Value.t option
(** [value_before t name i]: register [name] in [R_S^i]; [None] when
    the trace holds no such register. *)

val state_before : trace -> int -> (string * Value.t) list
(** All of [R_S^i], name-sorted, rebuilt — for tests and oracles. *)

val step_stage : Spec.t -> State.t -> stage:int -> unit
(** Run one stage of the current instruction: evaluate its data paths
    against the current state and commit (one [ue_k] cycle).
    Closure-path compatibility shim (tree-walking evaluation); the
    batch runners below compile the machine first. *)

val run_instruction : Spec.t -> State.t -> unit
(** One full round-robin sweep: stages [0 .. n-1] (closure path). *)

type compiled
(** The machine's stage writes compiled to evaluation plans (one tape
    per stage), reusable across runs. *)

val compile : Spec.t -> compiled
(** One hash-consed tape per stage, as {!Hw.Plan.build} returns it. *)

val spec : compiled -> Spec.t

val run_state_compiled :
  ?halt:(State.t -> bool) ->
  max_instructions:int ->
  compiled ->
  trace * State.t
(** Execute a precompiled machine from its initial state. *)

(** {1 Sessions (compile once, run many programs)}

    A session pairs a compiled machine with one persistent
    {!State.t} whose cells the per-stage plans are bound to.
    {!run_session} resets the state in place (bindings survive —
    see {!State.reset}), applies per-program initial-value
    overrides, and replays the machine: many programs, one
    compilation, no per-run plan binding.  A session is
    single-domain mutable state (see {!Hw.Plan}); {!local_session}
    maintains one per domain. *)

type session

val session : compiled -> session
(** A fresh session over the compiled machine. *)

val local_session : compiled -> session
(** The calling domain's cached session for this compiled machine
    (physical equality), created on first use.  Lets {!Exec.Pool}
    workers bind plans once per domain rather than once per task. *)

val run_session :
  ?halt:(State.t -> bool) ->
  ?init:(string * Value.t) list ->
  max_instructions:int ->
  session ->
  trace * State.t
(** Reset the session state — [init] entries override the spec's
    initial values, see {!State.reset} — and execute.  The returned
    state is the session's own (live until the next [run_session] on
    this session); the trace is the caller's and shares nothing
    mutable with the session.  Its columns are filled
    from the session's commits — the scalar registers read at every
    instruction boundary, the files from their write logs
    ({!State.cell_log}). *)

val run :
  ?halt:(State.t -> bool) ->
  max_instructions:int ->
  Spec.t ->
  trace
(** Execute from the initial state ({!compile} +
    {!run_state_compiled}).  [halt] is tested before each instruction
    (default: never). *)

val run_state :
  ?halt:(State.t -> bool) ->
  max_instructions:int ->
  Spec.t ->
  trace * State.t
(** Like {!run} but also returning the final machine state. *)

val ue_table : n_stages:int -> cycles:int -> Hw.Wave.t
(** The paper's Table 1: the round-robin pattern of [ue_k] signals of
    the sequential machine in the absence of stalls (column [ue_k] is 1
    in cycle [T] iff [T mod n = k]). *)
