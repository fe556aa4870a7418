(** Symbolic co-simulation.

    The trace checkers validate one initial state at a time.  This
    module runs both machines {e symbolically}: chosen registers (and
    register files) start with universally quantified contents, and
    the visible states are compared after each instruction —
    establishing data consistency {e for all data values at once}, the
    symbolic-simulation style of the paper's related work ([24] Velev &
    Bryant).

    Data are terms ({!Term}): a symbolic initial value is a variable,
    every data path applies its operators to terms, and terms are
    hash-consed in a table local to each {!check} call, so the
    pipelined and the sequential machine meet in the same term when
    they apply the same operators to the same operands — Burch & Dill's
    argument, which never looks inside the stage functions.  Operators
    on constants fold, so concrete control and addresses stay
    constants.  BDDs are built only where the engine must decide: a
    control bit (data hazard, misspeculation), a write guard or a
    write address that is not a constant, a read at a symbolic address
    once its value is needed, and a retirement comparison between two
    different terms.  There the term is bit-blasted through
    {!Equiv.Blast}, once per term, over the same variables as always
    (one per bit of each symbolic value, file entries bit-interleaved),
    so every decision runs on the canonical BDD it would have if every
    value were blasted: outcomes, path splits and counterexamples do
    not depend on what was folded or left unblasted, only the node
    count does.

    Scope: the {e stall-engine} inputs — the data-hazard signals and
    the misspeculation comparisons — must evaluate to constants each
    cycle; everything else, including program counters, branch
    conditions and hence the fetched instruction stream, may be fully
    symbolic (the case split flows through the terms and both paths
    are proved at once).  When a {e stall} decision itself
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
      (** [bdd_nodes]: the nodes the proof's BDD manager holds, the
          two terminals and one per variable included.  A proof whose
          control and addresses are concrete and whose results meet
          their specification in the same terms builds no other: toy3's
          reads 258. *)
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
    the per-retirement criterion of {!Consistency}: equal terms agree,
    and two different terms are compared as canonical BDD vectors. *)

val pp_outcome : Format.formatter -> outcome -> unit
