(** Verification coverage of the generated hardware.

    Trace-based checking is only as good as what the traces exercise.
    This collector watches a pipelined run and records, per forwarding
    rule, which sources actually won the priority selection ([top =
    j]), whether the data hazard fired, and per stage whether stalls,
    bubbles and rollbacks occurred — then reports the holes, so a test
    suite can assert that its programs drive every bypass path and
    interlock the tool generated. *)

type rule_coverage = {
  cov_label : string;
  sources_total : int;
  sources_hit : int list;  (** stages whose hit won at least once *)
  default_taken : bool;    (** the no-hit register read occurred *)
  dhaz_fired : bool;
}

type stage_coverage = {
  cov_stage : int;
  stalled : bool;
  bubbled : bool;          (** observed empty while a later stage was full *)
  rolled_back : bool;
}

type t = {
  rules : rule_coverage list;
  stages : stage_coverage list;
  cycles_observed : int;
}

val collector : Transform.t -> Pipesem.callbacks * (unit -> t)
(** Returns callbacks to pass to {!Pipesem.run} (compose with your own
    if needed) and a function to read the collected coverage. *)

val measure :
  ?ext:Pipesem.ext_model ->
  ?compiled:Pipesem.compiled ->
  stop_after:int ->
  Transform.t ->
  t
(** Run the machine and collect.  [compiled] reuses an existing
    evaluation plan for the machine instead of compiling it again (the
    collector reads signals by name, which every compiled plan
    keeps). *)

val merge : t -> t -> t
(** Pointwise union (for accumulating over several programs).
    @raise Invalid_argument if the shapes differ. *)

val holes : t -> string list
(** Human-readable descriptions of everything not yet exercised.
    Empty means full coverage. *)

val full : t -> bool

val pp : Format.formatter -> t -> unit
