(** Mutable register state of a machine, shared by the sequential and
    pipelined simulators.

    {b Read-only conventions.}  Two rules make copy-on-write files
    sound:
    - an {e image} — a register-file value passed as an initial value
      to {!create} (through the spec's [init]) or {!reset} — is never
      mutated afterwards, by anyone;
    - a file value returned by {!get} is never written in place; a
      file changes only through {!write_file}, {!set}, {!set_scalar}
      or {!restore}.

    {b Copy-on-write files.}  A file register filled from an image
    shares the image's array until its first write: {!get} returns the
    image itself, and the first {!write_file} copies it before storing
    the entry.  So a reset costs the same for a 4096-word memory as
    for a scalar, and a run pays one copy per file it writes.

    {b Write logs.}  Every file register logs the entry of each write
    since the last {!reset}, in write order ({!cell_log}).  A store of a whole value to a file register
    ({!set}, {!set_scalar}, {!restore}) cannot name its entries, so it
    marks the register {!cell_replaced} instead.  Outside the logged
    entries, a register that is not replaced still holds what the
    reset filled it with: the consistency checker compares files only
    at logged entries, and the sequential session builds its golden
    traces from the logs. *)

type t

val create : Spec.t -> t
(** All registers at their initial values ({!Spec.initial_value}).
    File registers initialised from the spec's [init] share that
    image, as after {!reset}. *)

val initial :
  ?init:(string * Value.t) list -> Spec.t -> string -> Value.t option
(** The value a {!reset} with [init] fills register [name] from: its
    [init] entry, else the spec's own; [None] when the register gets
    {!Spec.initial_value} (zero). *)

val reset : ?init:(string * Value.t) list -> Spec.t -> t -> unit
(** Return the state to [create m] semantics without reallocating
    cells: every spec register is restored to its initial value, with
    entries of [init] (shared until the register's first write, see
    above) taking precedence over the spec's own [init] list, and
    registers the spec does not know are removed.  Every write log is
    emptied.
    Because cells are reset {e in place}, plan bindings made with
    {!bind_plan} remain valid across resets — this is what lets one
    compiled session serve many programs (see
    {!Pipeline.Pipesem.run_session}).
    @raise Invalid_argument if an [init] name is not a spec register. *)

val get : t -> string -> Value.t
(** @raise Invalid_argument for unknown registers. *)

val set : t -> string -> Value.t -> unit

val get_scalar : t -> string -> Hw.Bitvec.t

val set_scalar : t -> string -> Hw.Bitvec.t -> unit

val read_file : t -> string -> Hw.Bitvec.t -> Hw.Bitvec.t

val write_file : t -> string -> addr:Hw.Bitvec.t -> data:Hw.Bitvec.t -> unit
(** Writes one entry, in place — into a copy of the image first if the
    register still shares one — and logs it. *)

val eval_env : t -> Hw.Eval.env
(** Environment reading registers by name (scalars as inputs, files
    through [lookup_file]).  Compatibility shim for the tree-walking
    {!Hw.Eval.eval}; the simulators bind plans instead
    ({!bind_plan}). *)

(** {1 Resolved cells}

    A register's storage, looked up by name once.  Cells are refilled
    in place by {!reset} and never replaced, so a resolved cell stays
    valid for the state's lifetime — the compiled commit path
    ({!Commit.resolve_stage}) resolves every write's destination once
    per session instead of hashing its name every cycle. *)

type cell

val cell : t -> string -> cell
(** @raise Invalid_argument for unknown registers. *)

val cell_set_scalar : cell -> Hw.Bitvec.t -> unit
(** {!set_scalar} through a resolved cell. *)

val cell_write_file : cell -> addr:int -> data:Hw.Bitvec.t -> unit
(** {!write_file} through a resolved cell, at a raw (unsigned) address
    masked to the file's size.
    @raise Invalid_argument if the register currently holds a scalar. *)

val cell_value : cell -> Value.t
(** What {!get} returns for the cell's register. *)

val cell_log : cell -> int array
(** The write log: the entry of each write since the last reset (or
    {!cell_drain}), in write order — an entry written twice appears
    twice — in the prefix of length {!cell_log_length}.  The array is the cell's own, valid until the
    next write: read, do not keep. *)

val cell_log_length : cell -> int

val cell_replaced : cell -> bool
(** A whole value was stored to the register since the last reset, so
    its log does not name every change: compare it in full. *)

val cell_drain : cell -> unit
(** Empty the log (a drained entry logs again at its next write);
    {!cell_replaced} stays as it was.  For a reader that consumes the
    log as it goes — the sequential session, once per instruction. *)

val cell_snapshot : cell -> Value.t
(** The register's value as no later write can change it: the image
    itself while the register still shares one, else a copy. *)

(** {1 Plan binding} *)

type bound
(** A plan instance wired to this state: every scalar plan input is
    paired with its register cell, every plan file reads the live
    register file. *)

val bind_plan : ?extern:(string -> bool) -> t -> Hw.Plan.t -> bound
(** Resolve every plan input against the state's registers.  Names
    satisfying [extern] (default: none) are left for the caller to
    set each cycle (the simulator's ["$full_k"]/["$ext_k"] free
    inputs).  @raise Hw.Eval.Eval_error for names that are neither
    registers nor external, or that have the wrong shape
    (file vs scalar). *)

val bound_instance : bound -> Hw.Plan.instance

val load : bound -> unit
(** Refresh every bound input slot from the current register values
    (call once per evaluation, before {!Hw.Plan.run}). *)

val snapshot : t -> (string * Value.t) list
(** Deep copy of all registers, for later comparison. *)

val snapshot_visible : Spec.t -> t -> (string * Value.t) list
(** Deep copy of the programmer-visible registers only. *)

val restore : t -> (string * Value.t) list -> unit

val equal_on : (string * Value.t) list -> (string * Value.t) list -> bool
(** Pointwise equality of two snapshots over their common names (both
    snapshots must have the same name set; extra names are an error). *)

val diff : (string * Value.t) list -> (string * Value.t) list -> string list
(** Names whose values differ between two same-shaped snapshots. *)

(** {1 Structure-of-arrays lane state}

    The lane mirror of {!t}: one record per register carrying every
    lane's value side by side — a packed word for width-1 scalars
    (bit [l] = lane [l]), a raw int per lane for wider scalars, an
    int-array per lane for register files.  The representation is
    exposed so the lane engines (commit, the cycle driver's packs,
    the consistency checker) can sweep the arrays directly.

    Error contract: any shape or width problem raises immediately
    ([Invalid_argument] or {!Hw.Eval.Eval_error}).

    A lane state is single-domain mutable state, like {!t}. *)

type lword = { mutable word : int }

type lane_value =
  | Lbool of lword  (** packed word: bit [l] is lane [l]'s bit *)
  | Lints of int array  (** lane-indexed raw values *)
  | Lfile of int array array
      (** lane-indexed contents; an individual lane's row may be
          replaced by {!reset_lanes} (length change), the outer array
          never is — plan bindings capture the outer array. *)

type lane_log
(** One file row's write log, the lane twin of {!cell_log}. *)

type lane_cell = {
  lc_width : int;
  lc_value : lane_value;
  lc_logs : lane_log array;
      (** file cells only (else [[||]]): per lane, the row's write log.
          Every write to a row logs its entry ({!lane_log_write}). *)
}

val lane_log_write : lane_log -> int -> unit
(** Log a write of entry [e] (already masked to the row's size). *)

val lane_log_entries : lane_log -> int array
(** As {!cell_log}: the entry of each write since the last
    {!reset_lanes}, in write order, in the prefix of length
    {!lane_log_length}. *)

val lane_log_length : lane_log -> int

type lanes

val create_lanes : Spec.t -> lanes
(** One lane cell per spec register, all zero, for
    {!Hw.Lanes.max_lanes} lanes. *)

val lanes_active : lanes -> int
(** Current lane count — set by the latest {!reset_lanes}. *)

val lanes_spec : lanes -> Spec.t
(** The machine the lanes were created for: what {!reset_lanes} falls
    back to ({!initial}). *)

val lanes_cell : lanes -> string -> lane_cell
(** @raise Invalid_argument for unknown registers. *)

val reset_lanes : inits:(string * Value.t) list array -> lanes -> unit
(** The lane mirror of {!reset}: lane [l] is initialised from
    [inits.(l)], with the spec's own [init] list and then zero as
    fallback ({!initial}).  The active lane count becomes
    [Array.length inits].  A file row is zeroed only where its
    previous program loaded a non-zero entry or wrote, then loaded
    from its image; its write log is emptied.
    Counts one [State_resets] per lane, like one {!reset} per lane.
    @raise Invalid_argument on unknown init names (scalar message) or
    width/kind mismatches. *)

type lanes_bound
(** A {!Hw.Plan.lanes} instance wired to this lane state. *)

val bind_lanes : ?extern:(string -> bool) -> lanes -> Hw.Plan.lanes -> lanes_bound
(** Resolve plan inputs and files against the lane cells, checking
    widths once here (the lane engine has no per-access width checks).
    Same name/shape error contract as {!bind_plan}. *)

val load_lanes : lanes_bound -> unit
(** Refresh every bound input slot from the lane cells (packed words
    stored, wide rows blitted), before {!Hw.Plan.run_lanes}. *)
