(** Sequential reference semantics (paper §2, table 1).

    The prepared sequential machine executes one instruction at a time
    by enabling the update-enable signals [ue_0, ue_1, ..., ue_{n-1}]
    round robin: stage [k] of instruction [I_i] runs in cycle
    [i*n + k].  This machine "behaves as desired" by assumption and
    serves as the reference for the correctness proof: the trace of
    programmer-visible states [R_S^i] (the correct value of [R] right
    before the execution of instruction [I_i]) is recorded here and
    consumed by the data-consistency checker. *)

type trace = {
  spec_before : (string * Value.t) list array;
      (** [spec_before.(i)] is the visible state [R_S^i]: right before
          instruction [I_i].  Length is [instructions + 1]; the last
          entry is the final visible state. *)
  instructions : int;  (** number of instructions executed *)
  halted : bool;       (** stopped because the halt predicate held *)
}

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
    state {e and trace} are the session's own (live until the next
    [run_session] on this session, which recycles the trace's
    snapshot storage): copy what must outlive the next run. *)

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
