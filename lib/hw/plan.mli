(** Compiled evaluation plans (compile once, evaluate many).

    The cycle simulators used to re-traverse every synthesized
    expression each cycle through the tree-walking interpreter
    {!Eval.eval}, resolving registers and signals through string-keyed
    closures.  A {e plan} compiles a set of expressions once into a
    topologically ordered instruction tape over integer {e slots}:

    - common subexpressions are hash-consed and evaluated once per
      {!run};
    - widths are checked at compile time ({!Compile_error}), not per
      evaluation;
    - register and signal names are resolved to slot indices up front;
    - register-file reads dispatch through a pre-bound file table.

    The tape {!build} returns is the one tape of its shape: the scalar
    engine ({!run}) and the lanes engine ({!run_lanes}) both execute
    it, whole, on every evaluation.  No pass rewrites it afterwards.

    {2 Building}

    A {!builder} compiles expressions incrementally.  {!define} names
    the result (later expressions referring to the name via
    [Expr.Input] resolve to its slot, like the simulator's
    definition-order signal lists); {!root} compiles an anonymous
    expression.  Both return the result slot.  [Expr.Input] names that
    are neither defines nor declared inputs are added as new input
    slots when the builder was created with [~auto:true], and rejected
    with {!Compile_error} otherwise.

    {2 Running}

    An {!instance} holds the mutable slot array for one evaluation
    context.  Bind the file table ({!bind_file}), load the input slots
    ({!set}), then {!run} executes the tape; read results with {!get}.
    A plan is immutable and can back any number of instances.

    Slots hold raw [int]s, each masked to its slot's compile-time width
    (the representation {!lanes} uses for wide slots), so a {!run}
    allocates nothing.  Values are boxed as {!Bitvec.t} only at the
    boundary: {!set} unboxes after its width check, {!get} and
    {!read_name} box on read, and a file reader receives the raw
    address and returns a {!Bitvec.t} entry whose width {!run} checks.
    {!get_raw} and {!get_bool} read without boxing.

    {2 Instance reuse}

    Instances are designed to be reused across evaluation contexts
    rather than reallocated: {!reset} returns an instance to its
    freshly created state (constants reloaded, every other slot
    cleared, every file unbound), after which it may serve an
    unrelated program or data image over the same plan.  Rebinding is
    also supported without a reset: {!bind_file} {e replaces} the
    current reader for a file, and {!run} recomputes every non-input
    slot from scratch, so a caller that rebinds all files and reloads
    all input slots between runs observes no state from the previous
    evaluation.  {!reset} is the belt-and-braces form for handing an
    instance to a new context: it also clears slots left over from an
    aborted or cancelled run and downgrades stale file bindings back
    to {!Run_error}-raising stubs, so forgetting a rebind fails loudly
    instead of silently reading the previous context's data.

    {2 Thread safety}

    The plan/instance split is the concurrency contract for the whole
    simulation stack (see {!Exec.Pool}):

    - a built {!t} is {e immutable} — share it freely across domains;
      any number of instances may be created from and evaluated over
      the same plan concurrently;
    - a {!builder} and an {!instance} are single-domain mutable state:
      confine each to the domain that created it (one instance per
      concurrent evaluation, never shared).

    Callers running plan-backed simulations in an {!Exec.Pool} compile
    once and keep {e one reusable instance per domain} (domain-local
    storage keyed by the plan, as in {!Pipeline.Pipesem.local_session}),
    resetting or rebinding it between tasks instead of allocating a
    fresh instance inside every task. *)

exception Compile_error of string
(** Width mismatch, undeclared name, or duplicate definition. *)

exception Run_error of string
(** Unbound register file, or a width mismatch on a value entering the
    plan at run time ({!set}, or a file read returning the wrong
    width). *)

type t
(** A compiled plan: instruction tape, slot/width tables, name maps. *)

type builder

type instance
(** Mutable evaluation state over a plan's slots. *)

(** {1 Compilation} *)

val create :
  ?auto:bool ->
  ?inputs:(string * int) list ->
  ?files:(string * int) list ->
  unit ->
  builder
(** [create ~auto ~inputs ~files ()]: [inputs] declares external
    scalar inputs (name, width); [files] declares register files
    (name, data width).  [auto] (default [false]) adds undeclared
    names on demand instead of rejecting them. *)

val define : builder -> string -> Expr.t -> int
(** Compile and name a result; subsequent [Expr.Input] references to
    the name resolve to the returned slot.
    @raise Compile_error on re-definition or width errors. *)

val root : builder -> Expr.t -> int
(** Compile an anonymous expression; returns its slot. *)

val input : builder -> string -> int -> int
(** [input b name width] declares (or finds) the external input slot
    for [name].  @raise Compile_error on a width conflict. *)

val build : builder -> t
(** Freeze the tape.  The builder must not be used afterwards. *)

val stats : t -> (string * int) list
(** Plan shape for reports: [("slots", _); ("consts", _);
    ("instrs", _)] followed by a per-opcode histogram of the tape
    (["binop_add"], ["mux"], ["file_read"], ...), sorted by name,
    zero-count opcodes omitted. *)

val pp : Format.formatter -> t -> unit
(** Dump the tape: one line per constant and per instruction, slots
    annotated with their names where they have one ([pipegen plan
    --dump]). *)

(** {1 Plan structure} *)

val n_instrs : t -> int
(** Tape length — the per-{!run} work, after hash-consing.  Every
    {!run} executes all of it. *)

val input_slot : t -> string -> int option
val define_slot : t -> string -> int option

val slot_of_name : t -> string -> int option
(** Defines first, then inputs: the slot a name resolves to. *)

val iter_inputs : t -> (string -> slot:int -> width:int -> unit) -> unit
val iter_files : t -> (string -> index:int -> width:int -> unit) -> unit

val slot_name : t -> int -> string option
(** Slot-to-name view for name-based callback interfaces (inverse of
    {!slot_of_name}; anonymous interior slots yield [None]). *)

(** {1 Evaluation} *)

val instance : t -> instance
(** Fresh slots (constants preloaded), no files bound. *)

val reset : instance -> unit
(** Return the instance to its freshly created state: constants are
    reloaded, every other slot is cleared, and every file binding is
    dropped (subsequent file reads raise {!Run_error} until
    {!bind_file} is called again).  Equivalent to replacing the
    instance with [instance (plan of inst)] but without allocation;
    see the instance-reuse contract above. *)

val bind_file : instance -> string -> (int -> Bitvec.t) -> unit
(** Bind a register-file reader.  Unknown names are ignored (the plan
    never reads them).  Readers are consulted on every [File_read]
    executed by {!run} with the raw (unsigned) address; results are
    width-checked ({!Run_error}). *)

val set : instance -> int -> Bitvec.t -> unit
(** Load an input slot.  @raise Run_error on width mismatch. *)

val run : instance -> unit
(** Execute the whole tape: every non-input slot receives its value.
    Counts one [Plan_runs] and {!n_instrs} [Plan_ops].
    @raise Run_error on an unbound file. *)

val get : instance -> int -> Bitvec.t
(** A slot's value, boxed at the slot's width. *)

val get_raw : instance -> int -> int
(** A slot's raw value (unsigned, masked to the slot's width), unboxed:
    what the resolved commit path ({!Machine.Commit.commit}) reads. *)

val get_bool : instance -> int -> bool
(** [get_raw <> 0]. *)

val read_name : instance -> string -> Bitvec.t option
(** Name-based lookup over defines and inputs (callback compatibility
    view). *)

val slot_width : t -> int -> int
(** Declared width of a slot. *)

(** {1 Bit-parallel lanes}

    A {!lanes} instance evaluates the same tape for up to
    {!Lanes.max_lanes} independent programs at once.  Width-1 slots
    are carried as one packed word per slot (bit [l] = lane [l]), so
    the boolean control fabric — stalls, fulls, hazard hits, squashes
    — advances every lane with single word ops; wider slots hold one
    raw (unboxed) int per lane and evaluate with flat array sweeps.

    Garbage discipline: bits and entries at index [>= lanes_active]
    are unspecified.  Callers load input slots with {!lanes_set_word}
    / {!lanes_ints} (mutate the row in place), bind register files as
    one [int array] per lane, and read results the same way.

    Like an {!instance}, a lanes instance is single-domain mutable
    state over an immutable shared plan.

    {!run_lanes} counts {e nothing} into {!Obs.Counters}: lane callers
    count the equivalent scalar work (one [Plan_runs] / tape-length
    [Plan_ops] per running lane) so the WORK totals stay bit-identical
    to one-lane runs. *)

type lanes

val lanes : ?capacity:int -> t -> lanes
(** Fresh lane instance (constants replicated into every lane).
    [capacity] defaults to {!Lanes.max_lanes}; raises
    [Invalid_argument] outside [1 .. Lanes.max_lanes]. *)

val lanes_plan : lanes -> t
val lanes_active : lanes -> int

val lanes_set_active : lanes -> int -> unit
(** Number of meaningful lanes for subsequent runs (1 to capacity). *)

val lanes_is_bool : lanes -> int -> bool
(** Whether a slot is width-1 (packed-word representation). *)

val lanes_word : lanes -> int -> int
(** Packed word of a width-1 slot. *)

val lanes_set_word : lanes -> int -> int -> unit
(** Store the packed word of a width-1 input slot (no width check —
    lane binders validate widths once at bind time). *)

val lanes_ints : lanes -> int -> int array
(** The lane-indexed row of a wide slot, for in-place load/readout. *)

val lanes_get : lanes -> int -> int -> int
(** [lanes_get ln slot lane]: one lane's raw value, either
    representation. *)

val lanes_bind_file : lanes -> string -> int array array -> unit
(** Bind a register file as one contents array per lane (outer array
    indexed by lane).  Unknown names are ignored.  The outer array is
    captured by reference: replacing an inner row later is seen by
    subsequent runs.  Reads mask the address by [row length - 1],
    mirroring {!Machine.Value.read_file}. *)

val run_lanes : lanes -> unit
(** Execute the whole tape across all active lanes.
    @raise Run_error on an unbound file. *)
