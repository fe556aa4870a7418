(** The one code path behind every front end.

    [handle] turns a {!Request.t} into a {!Response.t}.  The [pipegen]
    subcommands build a request from argv and pretty-print the
    response; the serve loop decodes requests from JSON lines and
    encodes responses back — both call this module, so the CLI and the
    daemon are provably the same evaluation (the test suite asserts
    output equality request by request).

    {2 The environment}

    A long-running service amortizes two things across requests:

    {ul
    {- the {e shape cache} — one {!Pipeline.Pipesem.compile} per
       machine shape (machine x forwarding mode x network
       implementation); later requests for the same shape but a
       different program reuse the plan through
       {!Pipeline.Pipesem.rebind};}
    {- the {e verdict cache} — a content-addressed {!Cache} of
       finished payloads, keyed by request kind + machine shape + the
       program the request resolves to, so a repeated question is
       answered without evaluating anything.  Campaign requests are
       never cached: their timed-out classification depends on
       wall-clock budgets.}}

    Without an [env] (the one-shot CLI) both caches are skipped.

    {2 Order of work}

    [handle] first {e resolves} the request's program (kernel lookup
    by exact name or unique prefix, assembly-file parse, or toy3's
    fixed program — the only code that reads it), derives the cache
    key from it, and looks the key up.  Only a miss builds the
    machine: transform, reference trace, and compile or rebind.  A
    hit therefore costs the program lookup, one digest over a few
    dozen ints and one table probe (an assembly file is read and
    parsed again, so a rewritten file misses); so do a cache-only
    refusal and a journal warm-start.  Sweeps generate their own
    programs and never build the selection.

    Thread safety: an {!env} may be shared by concurrent [handle]
    calls (both caches take internal locks); the serve loop calls
    [handle] from {!Exec.Pool} workers. *)

type selection = {
  sim : Workload.Sim.t;
  reference : Machine.Seqsem.trace option;
  disasm : (int -> string option) option;
}
(** A selected machine: the compiled simulation handle, the sequential
    reference trace (DLX machines) and the disassembler for failure
    evidence. *)

type env

val create_env : ?capacity:int -> ?metrics:Obs.Metrics.registry -> unit -> env
(** [capacity] bounds the verdict cache (default 256 entries). *)

val verdicts : env -> Cache.t
(** The environment's verdict cache (for observability and tests). *)

exception Invalid_request of string
(** A semantically invalid request — unknown kernel, unreadable or
    unparsable assembly file, a [bmc] campaign on a non-toy3 machine.
    [handle] maps it to a [Usage] error response; the CLI's legacy
    subcommands map it to exit code 2. *)

val select : ?env:env -> Request.spec -> selection
(** Resolve the request's program, then build its machine selection:
    reference trace, transform, and compile (or rebind a cached
    same-shape plan when [env] is given).

    @raise Invalid_request on unknown kernels, unreadable or
    unparsable assembly files. *)

val handle :
  ?env:env ->
  ?pool:Exec.Pool.t ->
  ?cancel:Exec.Cancel.token ->
  ?cache_only:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  Request.t ->
  Response.t
(** Evaluate one request: {!handle_prepared} of {!prepare}.  Never
    raises: usage errors become [Usage] responses,
    {!Exec.Cancel.Cancelled} becomes a [Timeout] error on a deadline
    trip and a [Cancelled] error on an explicit one (the token's
    {!Exec.Cancel.reason} decides — cooperative cancellation is a
    typed result, not an escape), and engine exceptions become
    [Internal] errors.  [cancel] is polled by the simulators and
    checkers; [pool] fans out the obligation suite and campaign
    mutants; [checkpoint]/[resume] are the campaign's operational
    knobs ({!Fault.Campaign.run}) — per the {!Request} contract they
    stay with the caller, not on the wire.

    With [cache_only] (the serve loop's degraded mode) a cache miss is
    answered [Overloaded] instead of evaluated, before anything is
    built. *)

type prepared
(** A request with its program resolved and its verdict-cache key
    derived: what {!handle} does before it looks at the cache.  Serve
    prepares each request of a batch once, coalesces on the key and
    evaluates the same value. *)

val prepare : Request.t -> prepared
(** Resolve the request's program and derive its key.  Nothing is
    built.  Never raises: a program that does not resolve is kept, and
    {!handle_prepared} answers it with the error {!handle} would. *)

val request : prepared -> Request.t

val verdict_key : prepared -> string option
(** The verdict-cache key {!handle} looks up for this request: kind,
    parameters, machine shape and resolved program, so two spellings
    of one question (a kernel prefix and its full name, toy3 under
    two kernels, a scalar and a [lanes] sweep) share it.  [None] for
    campaigns (never cached) and for requests whose program does not
    resolve. *)

val handle_prepared :
  ?env:env ->
  ?pool:Exec.Pool.t ->
  ?cancel:Exec.Cancel.token ->
  ?cache_only:bool ->
  ?checkpoint:string ->
  ?resume:bool ->
  prepared ->
  Response.t
(** {!handle} of a prepared request: the program is not resolved and
    the key not derived again. *)

val warm : env:env -> Request.t -> Response.payload -> unit
(** Install a journaled payload into the verdict cache under the key
    the ordinary path would compute for this request; nothing is
    built.  Campaigns (not cacheable) and requests whose program no
    longer resolves are skipped silently — warming is an optimization,
    never a correctness dependency. *)
