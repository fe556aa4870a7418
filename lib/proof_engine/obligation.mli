(** Proof obligations generated alongside the hardware (paper §1.1:
    "in addition to the forwarding and interlock hardware, our tool
    therefore also generates a proof of correctness for the new
    hardware").

    [generate] instantiates the paper's lemma structure with the
    machine-specific registers, stages and forwarding rules of one
    transformation.  [discharge_all] then checks each obligation by the
    stated method: trace invariants, co-simulation against the
    sequential reference, or (for small machines driven externally via
    {!Bmc}) exhaustively.  The PVS-style rendering of the same
    obligations is produced by {!Pvs_gen}. *)

type method_ =
  | Trace_invariant  (** checked on recorded pipeline traces *)
  | Cosimulation     (** checked against the sequential reference *)
  | By_construction  (** structural property of the generated netlist *)

type status =
  | Pending
  | Discharged of string  (** evidence summary *)
  | Failed of string

type obligation = {
  ob_id : string;
  ob_title : string;
  ob_statement : string;
  ob_method : method_;
  mutable ob_status : status;
}

val generate : Pipeline.Transform.t -> obligation list
(** Lemma 1 (three properties), Lemma 2 and Lemma 3 per forwarding
    rule, stall-engine invariants, speculation safety per speculation,
    the data-consistency theorem per visible register, and the
    liveness theorem. *)

type discharge = {
  obligations : obligation list Lazy.t;
      (** the statuses, as {!discharge_all} returns them.  Serially,
          when the co-simulation raised, the structural proofs run only
          once this is forced. *)
  runs : (Consistency.report, exn * Printexc.raw_backtrace) result;
      (** the co-simulation report the statuses were derived from (its
          [liveness] field is the liveness verdict); [Error (e, bt)]
          when the run raised, with its exception unchanged and the
          backtrace of where it was raised *)
}

val discharge :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?reference:Machine.Seqsem.trace ->
  ?compiled:Pipeline.Pipesem.compiled ->
  ?pool:Exec.Pool.t ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?disasm:(int -> string option) ->
  Pipeline.Transform.t ->
  discharge
(** {!discharge_all}, also returning the report of its one
    co-simulation, so a caller that needs the verdicts themselves
    ([Core.verify]) does not run it again, and one that gives up on a
    raising co-simulation does not pay for the structural proofs. *)

val discharge_all :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?reference:Machine.Seqsem.trace ->
  ?compiled:Pipeline.Pipesem.compiled ->
  ?pool:Exec.Pool.t ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?disasm:(int -> string option) ->
  Pipeline.Transform.t ->
  obligation list
(** Generate and check.  Structural obligations are checked on the
    netlist; behavioural ones by one co-simulation run, which checks
    Lemma 1 and the stall-engine invariants cycle by cycle and whose
    retirements also give the liveness verdict
    ({!Consistency.report}[.liveness]; LV's evidence is
    {!Liveness.evidence}).  Failing trace checks carry capped messages
    ({!Pipeline.Evidence}).  [compiled] reuses an existing evaluation
    plan for the co-simulation.

    With [pool], the independent checks fan out over the domain pool:
    the co-simulation (which checks Lemma 1 and the stall-engine
    invariants as it runs) alongside every per-rule structural (BDD)
    proof; the symbolic strengthening follows.  Each task either
    builds private state (a BDD manager per rule) or instantiates the
    shared immutable plan privately, and the statuses are assembled in
    the fixed obligation order — the result is bit-identical to the
    serial discharge.

    No checker exception escapes as an exception: a co-simulation
    that diverges or dies (e.g. on a fault-campaign mutant) marks the
    obligations it was meant to discharge [Failed] with typed
    evidence — the diverging register, cycle, stage, instruction tag
    and (via [disasm], a tag-to-text hook) its disassembly — so one
    failing obligation never masks the others.  [inject] runs the
    behavioural checks against a faulted machine and disables the
    symbolic strengthening (which replays unfaulted semantics).
    Without [inject], [ext] and [reference], a small machine's
    data-consistency evidence is strengthened by {!Symsim}: a proof
    adds "for ALL initial data" to the DC statuses, and a
    counterexample fails the DC obligation of its register with
    {!Symsim.pp_outcome}'s text.
    Only {!Exec.Cancel.Cancelled} propagates, when [cancel] fires. *)

val all_discharged : obligation list -> bool

val pp : Format.formatter -> obligation list -> unit
