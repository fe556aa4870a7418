(** Mutable register state of a machine, shared by the sequential and
    pipelined simulators.

    {b Read-only conventions.}  Two rules make file provenance
    ({!holds_image}) and copy-on-write files sound:
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
    for a scalar, and a run pays one copy per file it writes. *)

type t

val create : Spec.t -> t
(** All registers at their initial values ({!Spec.initial_value}).
    File registers initialised from the spec's [init] remember that
    image, as after {!reset}. *)

val reset : ?init:(string * Value.t) list -> Spec.t -> t -> unit
(** Return the state to [create m] semantics without reallocating
    cells: every spec register is restored to its initial value, with
    entries of [init] (shared until the register's first write, see
    above) taking precedence over the spec's own [init] list, and
    registers the spec does not know are removed.
    Because cells are reset {e in place}, plan bindings made with
    {!bind_plan} remain valid across resets — this is what lets one
    compiled session serve many programs (see
    {!Pipeline.Pipesem.run_session}).
    A file register filled from an image (an [init] entry, or the
    spec's own) remembers the physical image array; see
    {!holds_image}.
    @raise Invalid_argument if an [init] name is not a spec register. *)

val get : t -> string -> Value.t
(** @raise Invalid_argument for unknown registers. *)

val set : t -> string -> Value.t -> unit

val get_scalar : t -> string -> Hw.Bitvec.t

val set_scalar : t -> string -> Hw.Bitvec.t -> unit

val read_file : t -> string -> Hw.Bitvec.t -> Hw.Bitvec.t

val write_file : t -> string -> addr:Hw.Bitvec.t -> data:Hw.Bitvec.t -> unit
(** Writes one entry, in place — into a copy of the image first if the
    register still shares one.  Like {!set}, {!set_scalar} and
    {!restore}, it makes the register forget its image, even when the
    written value equals the old one. *)

val holds_image : t -> string -> Value.t -> bool
(** [holds_image t name v]: [v] is a file whose array is physically
    the image register [name] was last filled from by {!create} or
    {!reset}, and the register has not been written since.  Then its
    contents equal [v]'s without a scan — the consistency checkers use
    this to skip comparing an untouched data memory against a
    reference trace that still shares the same image.  [false] for
    scalars, unknown names and any other array, even one with equal
    contents. *)

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

val snapshot_visible_reusing :
  prev:(string * Value.t) list -> Spec.t -> t -> (string * Value.t) list
(** {!snapshot_visible}, recycling the storage of [prev] — a snapshot
    of the same machine from an earlier run whose ownership transfers
    to the result.  Register files are blitted into [prev]'s arrays
    instead of freshly allocated, keeping session replays off the GC;
    sessions consequently invalidate their previous trace on every
    run. *)

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

type lane_cell = {
  lc_width : int;
  lc_value : lane_value;
  lc_srcs : Hw.Bitvec.t array option array;
      (** file cells only (else [[||]]): per lane, the physical image
          array last applied by {!reset_lanes} while the row is
          untouched since — the lane twin of {!holds_image}: a reset
          from the same shared image skips the row without reading
          it, and a checker holding the same image knows the row equal
          without a scan.  Every write to a row clears its entry. *)
}

type lanes

val create_lanes : Spec.t -> lanes
(** One lane cell per spec register, all zero, for
    {!Hw.Lanes.max_lanes} lanes. *)

val lanes_active : lanes -> int
(** Current lane count — set by the latest {!reset_lanes}. *)

val lanes_cell : lanes -> string -> lane_cell
(** @raise Invalid_argument for unknown registers. *)

val reset_lanes : inits:(string * Value.t) list array -> lanes -> unit
(** The lane mirror of {!reset}: lane [l] is initialised from
    [inits.(l)], with the spec's own [init] list and then zero as
    fallback.  The active lane count becomes [Array.length inits].
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
