(** Symbolic co-simulation.

    The trace checkers validate one initial state at a time.  This
    module runs both machines {e symbolically}: chosen registers (and
    register files) start with universally quantified contents, every
    data path is evaluated over BDD vectors, and the visible states are
    compared canonically after each instruction — establishing data
    consistency {e for all data values at once}, the symbolic-
    simulation style of the paper's related work ([24] Velev & Bryant).

    Scope: the {e stall-engine} inputs — the data-hazard signals and
    the misspeculation comparisons — must evaluate to constants each
    cycle; everything else, including program counters, branch
    conditions and hence the fetched instruction stream, may be fully
    symbolic (the case split flows through the BDD vectors and both
    paths are proved at once).  When a {e stall} decision itself
    becomes data-dependent — e.g. whether a load-use interlock fires
    depends on a symbolic branch — the checker forks the execution
    Burch-Dill style: each side proceeds under the corresponding path
    constraint and all paths must prove.  [max_paths] (default 64)
    bounds the case explosion; exhausting it yields
    [Control_depends_on_data] — fall back to the trace checkers.
    Each path ends like a run of the cycle driver
    ({!Pipeline.Pipesem}): when its instructions have retired, or once
    no retirement can come within {!Pipeline.Pipesem.liveness_bound} of
    the last one — then the outcome is [Stopped], not a proof.

    State spaces: a symbolic register file with [2^a] entries of [w]
    bits costs [2^a * w] BDD variables; keep [a] and [w] small (the
    3-stage toy: 16 x 16 bits = 256 variables, well within reach). *)

type outcome =
  | Proved of { instructions : int; variables : int; bdd_nodes : int }
  | Mismatch of {
      instruction : int;   (** first instruction whose visible state differs *)
      register : string;
      assignment : (string * int) list;
          (** per symbolic scalar register: a concrete initial value
              exhibiting the difference (symbolic files are reported as
              ["file[index]"] entries) *)
    }
  | Control_depends_on_data of { cycle : int; what : string }
  | Stopped of { cycle : int; retired : int; instructions : int }
      (** not proved: a path stopped short of [instructions] retired at
          the cycle driver's liveness bound
          ({!Pipeline.Pipesem.liveness_bound}) — the machine cannot
          finish the program *)

val check :
  ?symbolic:string list ->
  ?max_paths:int ->
  instructions:int ->
  Pipeline.Transform.t ->
  outcome
(** [symbolic] names the registers whose initial contents are
    universally quantified (default: every programmer-visible register
    file small enough to encode — at most 2048 bits of state; a DLX
    data memory stays concrete unless requested).  Both machines start from the same symbolic state; all other
    registers take their declared initial values.  The comparison is
    the per-retirement criterion of {!Consistency}, done on canonical
    BDD vectors. *)

val pp_outcome : Format.formatter -> outcome -> unit
