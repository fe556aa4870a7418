(** Bounded failure evidence for the trace checkers.

    A checker ({!Schedule.lemma1_step}, the stall-engine invariants of
    [Proof_engine.Trace_invariants]) visits every cycle and counts
    every violation, but formats only the first {!shown} messages, in
    the order it finds them (cycle order); one final entry
    ["… and N more"] stands for the rest.  A run that fails in every
    one of ten thousand cycles costs a count, not megabytes of text,
    and a trace with at most {!shown} violations reads exactly as if
    nothing were capped. *)

val shown : int
(** The number of messages kept: 16. *)

type t = {
  total : int;  (** every violation found *)
  messages : string list;
      (** the first [min total shown] messages, then ["… and N more"]
          (N = [total - shown]) when [total > shown] *)
}

type sink
(** Counts violations and keeps the first {!shown} messages. *)

val sink : unit -> sink

val fail : sink -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Count one violation; its message is formatted only while fewer
    than {!shown} are kept. *)

val result : sink -> (unit, t) result
(** [Ok ()] when nothing was counted. *)
