(** Hazard-attribution wiring: an {!Obs.Hazard} consumer built from a
    transformed machine's rule inventory and fed through
    {!Pipesem.callbacks}.

    Per cycle it samples, pre-edge:

    - each rule's [$dhaz_<label>] signal, so a stage's interlock stall
      is attributed to the operand that raised it;
    - each rule's hit signals, so a consuming stage's operand value is
      attributed to the bypass source that actually fed it (the
      priority winner: nearest full stage first, then the
      architectural register read).

    The per-cycle records are folded into the exact CPI decomposition
    of {!Obs.Hazard.decompose}: [CPI = 1 + Σ stall components], with
    integer cycle accounting [cycles = retiring_cycles + Σ lost]. *)

type t

val create : ?base:Pipesem.callbacks -> Transform.t -> t
(** [base] callbacks (e.g. the tracer's) are invoked first on every
    hook, so attribution composes with existing consumers. *)

val callbacks : t -> Pipesem.callbacks

val finalize : t -> Obs.Hazard.summary
(** Flush the last buffered cycle and summarize.  Call once, after the
    simulation returns. *)

val source_label : Transform.source -> string
(** How a bypass source is named in the hit histogram: the forwarding
    register instance (e.g. ["C.2@2"]), ["Din@w"] for the writer stage,
    or ["stall@j"] for a source with no forwarding register.  The
    architectural fallback is ["reg"]. *)

val run :
  ?ext:Pipesem.ext_model ->
  ?compiled:Pipesem.compiled ->
  stop_after:int ->
  Transform.t ->
  Pipesem.result * Obs.Hazard.summary
(** [Pipesem.run] with attribution attached.  [compiled] reuses an
    existing evaluation plan for the machine. *)
