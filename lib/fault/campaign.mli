(** Detection-coverage campaigns (the fault-injection driver).

    For every mutant the campaign runs the verification stack —
    consistency co-simulation against the unfaulted reference, the
    full obligation discharge, and (when the target provides one) an
    exhaustive BMC sweep — and classifies the result:

    - {e detected}: some checker flagged the mutant (the desired
      outcome — the proof engine caught the defect);
    - {e masked}: every checker passed {e and} the mutant's
      architecturally visible final state equals the golden run's —
      the fault has no observable effect on this workload, so the
      green verdict is sound;
    - {e missed}: every checker passed but the visible state
      {e differs} from the golden run — a proof-engine false
      negative.  Any miss fails the campaign;
    - {e timed out}: the per-mutant budget expired (the wedged-engine
      mutant exercises this path deliberately);
    - {e aborted}: the classification task itself died — an engine
      bug, counted as a campaign failure like a miss.

    Campaigns are deterministic: outcomes carry no timing data and
    are reported in mutant order, so a run is bit-identical at any
    pool size, and the JSON checkpoint lets an interrupted campaign
    resume without re-running finished mutants. *)

type classification = Detected | Masked | Missed | Timed_out | Aborted

type outcome = {
  out_id : string;       (** {!Mutate.id} of the fault *)
  out_fault : string;    (** human-readable fault description *)
  out_class : classification;
  out_evidence : string;
}

type summary = {
  mutants : int;
  detected : int;
  masked : int;
  missed : int;
  timed_out : int;
  aborted : int;
}

val ok : summary -> bool
(** No misses and no aborts. *)

type target

val make_target :
  ?reference:Machine.Seqsem.trace ->
  ?instructions:int ->
  ?disasm:(int -> string option) ->
  ?bmc:(int list -> Pipeline.Transform.t) * int list * int ->
  ?bmc_load:(int list -> (string * Machine.Value.t) list) ->
  Pipeline.Transform.t ->
  target
(** The machine under test.  Its evaluation plan is compiled once,
    here: the golden run and every {e behavioural} mutant (injection
    hooks over the unchanged netlist) replay it through per-domain
    sessions; only {e structural} mutants — whose fault is a rewritten
    netlist ({!Mutate.mut_structural}) — still transform and compile
    their own machine.

    [reference] is the specification trace the co-simulations compare
    against (default: the prepared sequential machine itself);
    [instructions] the workload length (default 200); [disasm] renders
    instruction tags in evidence strings; [bmc = (build, alphabet,
    length)] adds an exhaustive sweep per mutant — [build] constructs
    the {e unfaulted} machine for a program, the campaign re-applies
    each structural fault to it ({!Mutate.rewrite}).  [bmc_load] makes
    those sweeps batched (compile once {e per mutant}, see
    {!Proof_engine.Bmc.exhaustive}): it must return the
    program-dependent initial values of [build]'s machine (e.g.
    [Core.Toy.image]). *)

val run :
  ?pool:Exec.Pool.t ->
  ?timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?metrics:Obs.Metrics.registry ->
  target ->
  Mutate.mutant list ->
  outcome list * summary
(** Classify every mutant.  With [pool], mutants fan out over the
    domain pool ({!Exec.Pool.map_result}): a raising task is
    [Aborted], a task past [timeout_s] is cancelled cooperatively and
    [Timed_out] — neither ever aborts the campaign or kills a worker.

    [checkpoint] names a JSON file rewritten after every completed
    batch; with [resume], mutants whose ids already appear in it are
    not re-run.  [metrics] receives [fault.*] counters. *)

val summarize : outcome list -> summary

val breakdown : summary -> (string * float) list
(** The detection-coverage section for the perf export
    ({!Obs.Export.entry} breakdown): mutant counts per class. *)

val to_json : outcome list -> Obs.Json.t
(** The checkpoint schema (["fault-campaign/1"]): summary plus the
    per-mutant outcomes, in campaign order. *)

val of_json : Obs.Json.t -> (outcome list, string) result

val pp_outcome : Format.formatter -> outcome -> unit
val pp_summary : Format.formatter -> summary -> unit
