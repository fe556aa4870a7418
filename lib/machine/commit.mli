(** Register-update semantics of one stage, shared by the sequential
    simulator and (through the transformed machine) the pipelined one.

    Implements the clock-enable convention of paper §2: when stage [k]
    updates,

    - a pipelined *instance* register ([prev_instance = Some p])
      receives [f_k]'s value if the write enable is active and the
      previous instance's current value otherwise (it always clocks);
    - any other register is clocked only when its write enable is
      active ([ce = f_k_Rwe ∧ ue_k]); register files write one entry at
      [f_k_Rwa].

    Evaluation is two-phase: all expressions of the stage are evaluated
    against the pre-update state, then all updates commit at once (a
    clock edge). *)

type update =
  | Set_scalar of string * Hw.Bitvec.t
  | Write_file of string * Hw.Bitvec.t * Hw.Bitvec.t  (** file, addr, data *)

val stage_updates :
  Spec.t -> stage:int -> env:Hw.Eval.env -> State.t -> update list
(** Evaluate stage [stage]'s writes (and instance shifts) in [env];
    [State.t] supplies the previous-instance values for pass-through.
    Raises [Hw.Eval.Eval_error] on evaluation failure.  The
    tree-walking path: the reference engine
    ({!Pipeline.Pipesem.run_reference}) and {!Seqsem.step_stage} use
    it, and it is the oracle the compiled path below is tested
    against. *)

val writes_updates :
  Spec.t -> writes:Spec.write list -> env:Hw.Eval.env -> State.t -> update list
(** Like {!stage_updates} but for an explicit write list (used for the
    speculation rollback writes, paper §5); instance pass-through is
    not applied — only listed writes commit, under their guards.
    Tree-walking path. *)

val apply : State.t -> update list -> unit
(** Commit an update list in order, counting its length into
    [Cells_written]. *)

(** {1 Compiled path}

    Stage writes compiled once into a {!Hw.Plan} builder ({!cwrite},
    {!cstage}), then resolved once per session against the session's
    {!State.t} ({!resolved}): each write's destination cell is looked
    up by name at resolution, never per cycle.  Per cycle the
    simulator runs the plan and {!commit}s straight from the slots —
    no update list is built. *)

type cwrite
(** One compiled register write: value / guard / address / instance
    pass-through resolved to plan slots. *)

type cstage = {
  cs_writes : cwrite list;
  cs_shifts : (string * int) list;
      (** instance registers without an explicit write: destination,
          slot holding the previous instance's value *)
}

val compile_stage : Spec.t -> Hw.Plan.builder -> stage:int -> cstage
(** Compile stage [stage]'s writes and shifts into the builder
    (subexpressions are shared with whatever else the builder holds). *)

val compile_writes : Spec.t -> Hw.Plan.builder -> Spec.write list -> cwrite list
(** Compile an explicit write list (rollback writes): no instance
    pass-through, mirroring {!writes_updates}. *)

type resolved
(** A stage's writes and shifts (or a rollback write list) bound to the
    cells of one {!State.t}. *)

val resolve_stage : State.t -> cstage -> resolved
(** Resolve a stage's writes, then its shifts, in that order.
    @raise Invalid_argument for a destination the state lacks. *)

val resolve_writes : State.t -> cwrite list -> resolved
(** Resolve an explicit (rollback) write list. *)

val commit : Hw.Plan.instance -> resolved -> unit
(** Apply the writes from an evaluated plan instance, in resolution
    order: an enabled write stores its value (a file write one entry at
    its address), a disabled write with a pass-through stores the
    previous instance's value, any other disabled write does nothing.
    Counts the stores into [Cells_written].  Equivalent to {!apply} of
    {!stage_updates} (or {!writes_updates}) against the same pre-edge
    values.

    Two-phase discipline: values and addresses are read from the
    instance's slots, which a commit never changes, so a caller that
    evaluates every firing stage's plan group first and then commits
    them one after another commits one clock edge against the pre-edge
    state (where two writes hit one register, the later commit
    wins, as with {!apply}). *)

(** {1 Lane path}

    The lane mirror of {!commit}: values flow straight from lane slots
    into lane cells under a lane mask.  Both functions return the scalar
    [Cells_written] equivalent of what they committed (one per enabled
    plain write per lane, one per pass-through/shift per masked lane)
    for the caller to count — nothing is counted directly.  Width or
    kind mismatches raise [Invalid_argument]. *)

val lanes_stage_updates :
  Hw.Plan.lanes -> State.lanes -> mask:int -> cstage -> int
(** Commit one stage's writes and shifts for every lane in [mask],
    reading an evaluated lane instance. *)

val lanes_writes_updates :
  Hw.Plan.lanes -> State.lanes -> mask:int -> cwrite list -> int
(** Commit an explicit write list (rollback writes) for every lane in
    [mask]. *)

val pp_update : Format.formatter -> update -> unit
