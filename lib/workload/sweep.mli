(** Experiment drivers: run a program on a configured DLX pipeline and
    collect the metrics the benchmark harness reports. *)

type config = {
  variant : Dlx.Seq_dlx.variant;
  options : Pipeline.Fwd_spec.options;
  ext : Pipeline.Pipesem.ext_model option;  (** e.g. slow memory *)
  verify : bool;  (** also run the data-consistency checker *)
}

val default : config
(** Base variant, full forwarding, no external stalls, verified. *)

val sim_of_program : ?config:config -> Dlx.Progs.t -> Sim.t
(** Transform the configured DLX variant with the program loaded and
    wrap it in a {!Sim} handle (reference trace attached when
    [config.verify] is set). *)

val run_program : ?config:config -> Dlx.Progs.t -> Stats.row
(** Transform, simulate [dyn_instructions] instructions, optionally
    verify against the golden model (failures raise).  All simulation
    goes through the compiled plan ({!Sim}). *)

exception Verification_failed of string

val memory_wait_states : every:int -> wait:int -> Pipeline.Pipesem.ext_model
(** A deterministic slow-memory model: every [every]-th cycle, the MEM
    stage stalls for [wait] consecutive cycles — the paper's "external
    stall condition... e.g. caused by slow memory". *)

val dependency_sweep :
  ?config:config -> ?pool:Exec.Pool.t -> ?batched:bool -> ?lanes:bool ->
  biases:float list -> length:int -> seed:int -> unit ->
  (float * Stats.row) list
(** CPI as a function of the operand dependency bias.

    By default ([batched], the compile-once path) the machine shape —
    fixed by the config's variant and options — is transformed and
    plan-compiled {e once} for the whole sweep; each point only
    generates its program and rebinds the IMEM/MEM initial values
    over a per-domain cached session
    ({!Pipeline.Pipesem.local_session}).  [~batched:false] restores
    the rebuild path (one {!Sim.t} per point: generation,
    transformation, plan compilation and simulation all per-task) —
    kept as the reference for the equivalence tests and the
    [PERF.sweep_batched_speedup] benchmark; both paths produce
    bit-identical rows.

    With [pool], the points fan out over the domain pool; rows are
    bit-identical to the serial run and in input order.

    [lanes] (batched, verified sweeps only; ignored otherwise) packs
    consecutive points into ≤62-lane bit-parallel packs: one
    {!Proof_engine.Consistency.check_lanes} run verifies the whole
    pack against the points' individual golden traces.  Each lane's
    report is the one the scalar batched sweep computes for its
    point, so rows, failure messages and WORK counters are
    bit-identical to it. *)

val branch_sweep :
  ?config:config -> ?pool:Exec.Pool.t -> ?batched:bool -> ?lanes:bool ->
  taken_fracs:float list -> length:int -> seed:int -> unit ->
  (float * Stats.row) list
