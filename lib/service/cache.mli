(** Content-addressed verdict cache.

    Verification is deterministic: within one build, a verdict is a
    pure function of the request's inputs — the {e request kind} with
    its parameters, the machine {e shape} (machine, forwarding mode,
    network implementation) and the {e program} it resolves to (the
    instruction words, the data image and the dynamic instruction
    count).  The machine selection and every evaluator read nothing
    else, and the transform, reference trace and plan are
    deterministic functions of them.  So the key digests those inputs
    (a few dozen ints), not the generated hardware: a hit builds
    nothing.  Two routes to the same program share one entry ([fib]
    and [fib_10], or one assembly body under two paths); any change to
    the words, data, shape, kind or parameters misses.

    Entries live in one process, so they always describe the running
    build.  A journal warm-start ([Handler.warm]) re-keys journaled
    payloads under the running build, as replay re-emits completed
    entries verbatim.

    A hit returns the stored {!Response.payload} unchanged: replayed
    verdicts are bit-identical to the cold evaluation (the test suite
    asserts this on the JSON encoding).  Entries are evicted FIFO past
    [capacity].

    Thread safety: all operations take an internal mutex; the serve
    loop shares one cache across its {!Exec.Pool} workers.  Hits and
    misses are surfaced through {!Obs.Counters}
    ([serve_cache_hits]/[serve_cache_misses], Sched class) and through
    the optional per-cache {!Obs.Metrics} registry. *)

type t

val create : ?capacity:int -> ?metrics:Obs.Metrics.registry -> unit -> t
(** [capacity] defaults to 256 entries. *)

val key :
  kind:string ->
  params:string list ->
  shape:string ->
  instructions:int ->
  program:int list ->
  data:(int * int) list ->
  string
(** The content address: the MD5 digest of the request kind, its
    parameters, the machine shape and the resolved program's dynamic
    instruction count, instruction words and (address, value) data
    image. *)

val find : t -> string -> Response.payload option
(** Counter-bumping lookup. *)

val add : t -> string -> Response.payload -> unit

val hits : t -> int

val misses : t -> int

val length : t -> int
