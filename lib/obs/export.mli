(** The machine-readable performance trajectory: [BENCH_pipeline.json].

    The benchmark harness writes one entry per experiment (kernel CPI
    rows, micro-benchmark timings); future sessions read the file back
    and regress against it.  The schema is versioned and round-trips
    through {!Json} exactly — a property the test suite and the bench
    smoke mode both assert. *)

type entry = {
  experiment : string;   (** e.g. ["C1.fib_10"], ["TIMING.F2_dlx_transformation"] *)
  ns_per_run : float option;  (** micro-benchmark wall time *)
  cpi : float option;
  instructions : int option;
  cycles : int option;
  breakdown : (string * float) list;
      (** CPI components by {!Hazard.cause_label} *)
  higher_is_better : bool;
      (** the row's direction: [ns_per_run] holds a ratio where more is
          better (a speedup), not a time.  Exported as
          ["better": "higher"]; absent means lower is better. *)
}

val entry :
  ?ns_per_run:float ->
  ?cpi:float ->
  ?instructions:int ->
  ?cycles:int ->
  ?breakdown:(string * float) list ->
  ?higher_is_better:bool ->
  string ->
  entry
(** [higher_is_better] defaults to [false]. *)

val schema_version : string

val to_json : entry list -> Json.t
val of_json : Json.t -> (entry list, string) result
(** Rejects unknown schema versions and malformed entries. *)

val write_file : path:string -> entry list -> unit
val read_file : path:string -> (entry list, string) result
