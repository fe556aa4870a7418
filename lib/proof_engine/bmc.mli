(** Exhaustive bounded checking for small machines.

    The paper discharges its lemmas in PVS; our substitute for the
    theorem prover (see DESIGN.md) combines the per-run checkers with
    an exhaustive sweep: for machines whose behaviour is determined by
    a short program over a small instruction alphabet, [exhaustive]
    co-simulates {e every} program of the given length and reports any
    counterexample.  This covers all interleavings of hazards,
    forwarding hits and stalls expressible at that bound — a
    bounded-model-checking argument rather than an inductive proof,
    exchanged for zero manual effort. *)

type outcome = {
  programs : int;           (** programs checked *)
  failures : (int list * string) list;
      (** failing programs (as encoding lists) with a reason, at most
          [max_failures] recorded *)
}

val ok : outcome -> bool

val exhaustive :
  ?max_failures:int ->
  ?ext:Pipeline.Pipesem.ext_model ->
  ?pool:Exec.Pool.t ->
  ?inject:Pipeline.Pipesem.injection ->
  ?cancel:Exec.Cancel.token ->
  ?load:(int list -> (string * Machine.Value.t) list) ->
  build:(int list -> Pipeline.Transform.t) ->
  alphabet:int list ->
  length:int ->
  unit ->
  outcome
(** [exhaustive ~build ~alphabet ~length ()] enumerates all
    [|alphabet|^length] programs and runs the full consistency check
    on each.  Keep [|alphabet|^length] modest: it is a product with
    the per-program simulation cost.

    Without [load] (the rebuild path), every program builds its own
    transformed machine and compiles its own plan — robust, but the
    build + compile cost is paid [|alphabet|^length] times for one
    machine shape.  With [load] (the batched, compile-once path),
    [build] runs {e once} — on the first enumerated program — to fix
    the shape; each program is then checked by overriding the initial
    register values with [load program] (typically the IMEM image —
    see [Core.Toy.image], [Machine_gen.image]) over the compiled
    shape, reusing per-domain cached sessions.  This requires the
    {e shape-invariance} contract: [build p] and [build p'] must
    differ only in initial values covered by [load].  Outcomes are
    then bit-identical to the rebuild path, at a fraction of the
    cost (regressed by the [PERF.bmc_*] bench entries).

    With [pool], programs are checked concurrently — the compiled
    shape is shared across domains, and each pool worker allocates
    its evaluation instances once per domain, not per program;
    failures are reported in enumeration order, identically to the
    serial sweep.

    [inject] runs every program's co-simulation against the faulted
    machine (the fault-injection campaigns use this to let the
    exhaustive sweep hunt a mutant the loaded workload masks); a
    per-program exception is recorded as that program's failure
    instead of aborting the sweep.  [cancel] aborts the whole sweep
    by raising {!Exec.Cancel.Cancelled}. *)

val pp : Format.formatter -> outcome -> unit
