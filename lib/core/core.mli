(** Automated pipeline design — one-call facade.

    The full API lives in the underlying libraries:

    - [Hw] — bit vectors, the combinational expression IR, cost model,
      circuit generators, HDL emission;
    - [Machine] — prepared sequential machine descriptions, validation,
      sequential (round-robin) semantics;
    - [Pipeline] — the transformation tool: stall engine, forwarding,
      interlock, speculation, pipelined simulation, reports;
    - [Proof_engine] — obligation generation and the checkers (data
      consistency, liveness, trace invariants, exhaustive sweeps),
      PVS-style proof emission;
    - [Dlx] — the paper's case study: ISA, assembler, golden model,
      prepared sequential DLX and its speculation variants;
    - [Workload] — program generators, metrics, parameter sweeps.

    This module packages the common flow: take a prepared sequential
    machine, pipeline it, verify it, report on it. *)

val pipeline_of_sequential :
  ?options:Pipeline.Fwd_spec.options ->
  ?hints:Pipeline.Fwd_spec.hint list ->
  ?speculations:Pipeline.Fwd_spec.speculation list ->
  Machine.Spec.t ->
  Pipeline.Transform.t
(** Validate and transform (paper steps 3 and 4). *)

type verification = {
  consistency : Proof_engine.Consistency.report;
  liveness : Proof_engine.Liveness.report;
  obligations : Proof_engine.Obligation.obligation list;
}

val verify :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?reference:Machine.Seqsem.trace ->
  ?compiled:Pipeline.Pipesem.compiled ->
  ?pool:Exec.Pool.t ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?disasm:(int -> string option) ->
  Pipeline.Transform.t ->
  verification
(** Generate and discharge the proof obligations
    ({!Proof_engine.Obligation.discharge}).  The suite runs one
    data-consistency co-simulation and reads liveness off the same run;
    its reports are the [consistency] and [liveness] fields (the
    latter is [consistency.liveness]), so nothing is simulated twice.
    A run that raises re-raises its own exception here, with the
    backtrace of where it was raised; serially, a raising
    co-simulation skips the structural proofs.

    With [pool], the obligation checkers fan out over the pool (see
    {!Proof_engine.Obligation.discharge_all}).  The result is identical
    to the serial run at any pool size.

    [inject] runs the behavioural checkers against a faulted machine
    (see {!Pipeline.Pipesem.injection}); [cancel] aborts by raising
    {!Exec.Cancel.Cancelled}; [disasm] renders instruction tags in
    failure evidence. *)

val verified : verification -> bool

type verify_error = { phase : string; message : string }

val verify_result :
  ?ext:Pipeline.Pipesem.ext_model ->
  ?max_instructions:int ->
  ?reference:Machine.Seqsem.trace ->
  ?compiled:Pipeline.Pipesem.compiled ->
  ?pool:Exec.Pool.t ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?disasm:(int -> string option) ->
  Pipeline.Transform.t ->
  (verification, verify_error) result
(** [verify] with no escaping checker exception: a machine broken
    badly enough to abort verification (a fault-campaign mutant whose
    plan no longer evaluates, say) yields [Error] with the failing
    phase.  Only {!Exec.Cancel.Cancelled} propagates. *)

val report : Pipeline.Transform.t -> string
(** The generated-hardware inventory (figure 2 style). *)

val verilog : Pipeline.Transform.t -> string
(** The generated control logic as an HDL module. *)

val proof_script : Pipeline.Transform.t -> verification -> string
(** The PVS-style proof theory with discharge annotations. *)

(** The 3-stage demo machine (see {!module:Toy}). *)
module Toy : module type of Toy

(** The depth-parametric machine family (see {!module:Elastic}). *)
module Elastic : module type of Elastic
