(** The long-running verification service ([pipegen serve]).

    Protocol: newline-delimited JSON.  Each input line is one
    {!Request.t}; each output line is the matching {!Response.t}, in
    input order.  The loop reads stdin until EOF (or serves one client
    at a time on a Unix socket with [socket]) and admits requests in
    {e batches}: after a blocking read of the first pending line, every
    further line already available is drained into the same batch.

    Admission per batch:

    {ul
    {- {e Coalescing} — requests that ask one question (the same
       {!Handler.verdict_key} and the same [deadline_s]: a kernel
       prefix and its full name, toy3 under two kernels, a scalar and
       a [lanes] sweep) collapse into one evaluation, the first in
       input order leading; the followers are answered with the
       leader's payload, marked [cached], and counted in
       [serve_coalesced].  Requests without a key (campaigns, programs
       that do not resolve) coalesce only with their own canonical
       wire form ({!Request.to_json} up to [id]).}
    {- {e Backpressure} — leaders beyond [max_queue], and leaders
       whose projected queue wait (an EWMA of recent service time)
       already exceeds their request [deadline_s], are shed with typed
       [Overloaded] responses carrying [retry_after_s]
       ([serve_shed]).  Three consecutive shedding batches switch the
       server to cache-only degraded mode (misses answered
       [Overloaded] without evaluating); a half-empty queue switches
       back.}
    {- {e Verdict cache} — each distinct request is answered from the
       environment's content-addressed {!Cache} when its key is
       present ([serve_cache_hits]); otherwise it is evaluated and the
       payload stored.}
    {- {e Isolation} — evaluations fan out over an {!Exec.Pool} via
       [map_result]: each request gets a cancellation token that is a
       child of the server's shutdown token, with [timeout_s] as its
       per-request budget and the request's own [deadline_s] as one
       more child deadline.  A timeout, explicit cancellation or crash
       yields a typed error response; the loop and the other requests
       are unaffected.  [Failed] (transient) outcomes are retried up
       to [retries] times with exponential backoff ([serve_retries]) —
       safe because evaluation is pure.}}

    {2 Failure domains}

    With [journal], the loop is {e crash-only}: each admitted batch is
    appended to a write-ahead {!Journal} (one fsync) before evaluation
    and each completed response after, so a SIGKILL at any point loses
    nothing — the next [run] replays completed responses verbatim,
    warm-starts the verdict cache from them, and re-evaluates the
    unfinished remainder ([serve_journal_replayed]).  The journal is
    truncated only on a clean end-of-input shutdown.

    A client disconnect mid-response (EPIPE/ECONNRESET; SIGPIPE is
    ignored for the duration of [run]) fails only that connection.  A
    worker domain death is healed at batch boundaries
    ({!Exec.Pool.heal}, [pool_restarts]); wedged domains are surfaced
    through the [serve.wedged_domains] gauge.  [chaos] arms the
    seeded {!Exec.Chaos} injector on the evaluation pool so all of
    these paths are exercisable deterministically.

    Observability: [serve_requests], [serve_cache_hits]/[_misses],
    [serve_coalesced], [serve_queue_hwm], [serve_shed],
    [serve_retries], [serve_journal_replayed] and [pool_restarts]
    ({!Obs.Counters}, Sched class — never perf-gated), plus a per-run
    {!Obs.Metrics} registry (cache counters, queue-depth and
    restart/wedge gauges, per-request latency histogram
    [serve.latency_ms]) written to [metrics_out] as JSON on exit. *)

type config = {
  jobs : int;  (** pool size for request evaluation (>= 1) *)
  timeout_s : float option;  (** per-request budget; [None] = unbounded *)
  capacity : int;  (** verdict-cache entries *)
  metrics_out : string option;  (** write the metrics JSON here on exit *)
  socket : string option;  (** serve on this Unix socket, not stdin *)
  journal : string option;  (** write-ahead journal path ([--journal]) *)
  max_queue : int;  (** admission bound per batch ([--max-queue]) *)
  retries : int;  (** transient-failure retry budget ([--retries]) *)
  chaos : Exec.Chaos.config option;  (** arm the fault injector *)
}

val default_config : config
(** Pool of {!Exec.Pool.default_size}, no timeout, 256 cache entries,
    no metrics file, stdin/stdout; no journal, [max_queue] 256, 2
    retries, no chaos. *)

val run : ?config:config -> unit -> int
(** Serve until EOF (stdin mode) or SIGINT/SIGTERM; returns the
    process exit code (0 on clean shutdown, 1 on an I/O failure of the
    transport itself). *)

(**/**)

exception Client_gone
(** A client hung up mid-conversation (EPIPE/ECONNRESET on the
    response write).  Contained per connection by [run]. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying short writes; raises
    {!Client_gone} when the peer is gone.  Exposed for the EPIPE
    regression test. *)

type admission

val make_admission : ?max_queue:int -> ?retries:int -> unit -> admission
(** Fresh admission state (defaults: 256, 2).  One instance persists
    across every batch of a server run. *)

val degraded : admission -> bool

val process_batch :
  env:Handler.env ->
  pool:Exec.Pool.t ->
  ?timeout_s:float ->
  ?cancel:Exec.Cancel.token ->
  ?latency:Obs.Metrics.histogram ->
  ?admission:admission ->
  string list ->
  Response.t list
(** One admission batch over raw input lines, exposed for the test
    suite: parse, coalesce, shed (when [admission] is given),
    cache-check, evaluate with bounded retries, and return responses
    in input order.  Without [admission] there is no shedding, no
    deadline reject, no degraded mode and no retrying — the plain
    evaluation path. *)

val replay :
  env:Handler.env ->
  pool:Exec.Pool.t ->
  cfg:config ->
  shutdown:Exec.Cancel.token ->
  latency:Obs.Metrics.histogram ->
  admission:admission ->
  Journal.t ->
  (string -> unit) ->
  unit
(** Journal recovery, exposed for the bench robustness leg: re-emit
    completed entries verbatim (warming the verdict cache), re-admit
    the pending remainder as one batch whose done-records land on the
    original sequence numbers, bumping [serve_journal_replayed] per
    emitted response.  Reads the journal at [cfg.journal]; appends
    done-records through the handle. *)
