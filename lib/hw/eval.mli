(** Evaluation of combinational expressions.

    The simulators evaluate the stage functions [f_k] (and the
    synthesized forwarding, interlock and stall-engine expressions)
    against the current register contents.

    {2 The two evaluation paths}

    The {e compiled} path ({!compile} / {!run_plan}, built on
    {!Plan}) turns an expression set into an instruction tape once and
    replays it; this is what every simulator uses.  The {e closure}
    path ({!env} / {!eval}) is the original tree-walking interpreter,
    kept as a documented compatibility shim: it is the reference
    implementation the plan compiler is property-tested against, and
    the convenient entry point for tests and constant folding.  New
    simulation code should compile a plan instead of calling {!eval}
    per cycle. *)

type env = {
  lookup_input : string -> Bitvec.t;
      (** Value of a named register or signal.  Should raise
          [Not_found] (or any exception) for unknown names. *)
  lookup_file : string -> Bitvec.t -> Bitvec.t;
      (** [lookup_file file addr] reads a register-file entry. *)
}

exception Eval_error of string
(** Raised when a lookup fails or a value has an unexpected width. *)

val eval : env -> Expr.t -> Bitvec.t
(** Tree-walking evaluation; the result width equals [Expr.width] of
    the expression.  Compatibility shim — see the module preamble. *)

val eval_bool : env -> Expr.t -> bool
(** Evaluate a 1-bit expression to a boolean. *)

val env_of_assoc :
  ?files:(string * (Bitvec.t -> Bitvec.t)) list ->
  (string * Bitvec.t) list ->
  env
(** Convenience environment over association lists (for tests).
    Lookup is backed by a hash table built once from the lists, so a
    read is O(1) instead of the O(n) of [List.assoc]; with duplicate
    names the first binding wins, matching [List.assoc].  Unknown
    names still raise [Not_found] so that {!eval} maps them to
    {!Eval_error}. *)

(** {1 Compiled evaluation} *)

type env_spec = {
  spec_inputs : (string * int) list;  (** scalar input names and widths *)
  spec_files : (string * int) list;   (** file names and data widths *)
}
(** The compile-time description of an environment: which names an
    expression set may read, with their widths.  Names outside the
    spec are rejected at compile time. *)

type compiled = {
  plan : Plan.t;
  roots : int array;  (** result slot of each compiled expression *)
}

val compile : env_spec -> Expr.t list -> compiled
(** Compile an expression list against an environment spec: common
    subexpressions are shared across all roots, widths are checked
    now, names resolve to slots.
    @raise Plan.Compile_error on width errors or undeclared names. *)

val run_plan : compiled -> env -> Bitvec.t array
(** Evaluate a compiled plan against a closure environment: inputs are
    fetched by name once per call, the tape runs, and the root values
    are returned in order.  Errors are reported as {!Eval_error} with
    the same messages as {!eval}.  The tape carries raw addresses, so
    [lookup_file] receives each address boxed at {!Bitvec.max_width}
    bits: the same unsigned value {!eval} passes, at full width. *)
