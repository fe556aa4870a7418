(** The typed request API of the verification service.

    A request is everything a [pipegen] subcommand needs to produce
    its result, minus presentation and operational concerns (output
    formatting, parallelism degree, checkpoint paths stay with the
    caller).  The CLI parses argv into a {!t} and the serve loop
    decodes one JSON object per input line into the same {!t}, so both
    front ends drive the identical {!Handler} code path.

    {2 Wire format}

    One flat JSON object per request, versioned:

    {v
    {"pipegen": 1, "id": "r42", "kind": "verify",
     "machine": "dlx5", "kernel": "fib_10"}
    v}

    [pipegen] (the protocol version) and [kind] are required;
    everything else is optional with the defaults of {!default_spec}
    and of each kind's record.  The decoder is {e strict}: an unknown
    field anywhere is an error naming the offending key (no silent
    defaulting), a field of the wrong type is an error naming the key
    and the expected type, and {!of_json} never guesses. *)

type spec = {
  machine : Machine_spec.t;
  kernel : string option;  (** DLX kernel name (exact or unique prefix) *)
  program_file : string option;  (** DLX assembly file to load *)
  interlock_only : bool;  (** no forwarding paths (baseline E5) *)
  impl : Hw.Circuits.priority_impl;  (** selection-network implementation *)
}

val default_spec : spec
(** [dlx5], no kernel or program, full forwarding, chain networks. *)

type sweep_axis = Dependency | Branch

type kind =
  | Transform of { verilog : bool }
      (** the generated hardware: machine summary and inventory, plus
          the HDL rendering when [verilog] is set *)
  | Verify  (** proof obligations + checkers, the [verify] subcommand *)
  | Proof  (** the PVS-style proof theory with discharge annotations *)
  | Stats  (** hazard attribution and the CPI decomposition *)
  | Campaign of {
      seed : int;
      mutants : int option;  (** sample size; [None] runs every mutant *)
      transients : int;
      hang : bool;
      timeout_s : float;  (** per-mutant budget *)
      bmc : bool;  (** exhaustive program sweep per mutant (toy3 only) *)
    }
  | Sweep of {
      axis : sweep_axis;
      points : float list;  (** dependency biases / taken fractions *)
      length : int;
      seed : int;
      lanes : bool;
          (** drive the verified points through the bit-parallel lane
              engine, up to 62 per machine word; rows are bit-identical
              to the scalar sweep *)
    }

type t = {
  id : string option;
  spec : spec;
  kind : kind;
  deadline_s : float option;
      (** client deadline, seconds from admission: the serve loop
          rejects the request [Overloaded] when the projected queue
          wait already exceeds it, and otherwise evaluates under a
          cancellation deadline of this budget (a trip is a [Timeout]
          response).  [None] = the server's [--timeout] policy alone.
          Serve's duplicate coalescing keys on the deadline too, so
          requests differing only in deadline do not coalesce. *)
}

val make : ?id:string -> ?deadline_s:float -> ?spec:spec -> kind -> t

val kind_name : t -> string
(** The wire name of the request kind, e.g. ["verify"]. *)

val version : int
(** The protocol version this codec speaks (1). *)

(** {1 Codec} *)

val to_json : t -> Obs.Json.t
(** Canonical encoding: optional fields that hold their default are
    omitted, so [to_json] is injective on the semantic content and its
    output round-trips through {!of_json} exactly. *)

type decode_error = {
  path : string;  (** JSONPath-style location, e.g. ["$.kernel"] *)
  message : string;
}

val of_json : Obs.Json.t -> (t, decode_error) result
(** Strict decode; see the wire-format notes above. *)

val of_string : string -> (t, decode_error) result
(** Parse + {!of_json}; a JSON syntax error is reported at ["$"]. *)

val to_string : t -> string
(** Minified {!to_json}, the serve wire encoding. *)

val equal : t -> t -> bool

val pp_decode_error : Format.formatter -> decode_error -> unit
