(** Deterministic work counters: cachegrind-style scores for the
    simulation and verification hot paths.

    Wall-clock timings drift with the host; these counters do not.
    Every counter tallies a unit of {e semantic} work (a plan run, a
    cell written, a cycle simulated) or of {e scheduling} work (a pool
    task, a plan binding).  The two classes have different contracts:

    {ul
    {- {b Work} counters are bit-identical for a given workload across
       pool sizes ([-j 1] vs [-j max]) and across the batched vs
       rebuild evaluation paths — they count what was computed, not
       how it was scheduled.  The bench exports them as [WORK.*] rows
       that regress {e exactly}.}
    {- {b Sched} counters depend on the pool size and the per-domain
       session caches (how the work was placed).  They are exported as
       [SCHED.*] rows and are informational only.}}

    Counting is {e domain-safe}: each domain increments a private
    domain-local array (no contention on the hot path), and
    {!snapshot} sums — or takes the max of, for high-water-mark
    counters — the arrays of every domain that ever counted,
    including pool workers that have since been joined.

    Overhead when disabled is one atomic load per call site. *)

type id =
  (* Work class: deterministic at any pool size. *)
  | Plan_runs  (** {!Hw.Plan.run} invocations (one per engine cycle) *)
  | Plan_ops
      (** tape instructions executed by {!Hw.Plan.run}: every run
          executes the whole tape, so [Plan_runs] times
          {!Hw.Plan.n_instrs} per compiled shape *)
  | Cells_written  (** register/file cells written by [Commit.apply] *)
  | State_resets  (** in-place {!Machine.State.reset} calls *)
  | Snapshot_words
      (** words recorded by sequential golden traces ({!Machine.Seqsem}):
          one per scalar per instruction boundary, one per file write,
          and a starting file's entries when it had to be copied; and
          words copied by {!Machine.State.snapshot_visible} *)
  | Sim_cycles  (** pipeline cycles driven by the [Pipesem] loop *)
  | Sim_retired  (** instructions retired by the [Pipesem] loop *)
  | Seq_instructions  (** instructions executed by [Seqsem] sessions *)
  | Golden_steps
      (** instructions the DLX golden model ([Dlx.Refmodel]) executed
          for reference traces ([Dlx.Seq_dlx.ref_trace]), added once
          per trace.  A program's dynamic count is not included: a
          batched sweep generates its first program twice. *)
  | Entries_compared
      (** entries the consistency checker compared: one per scalar
          register comparison and, per register-file comparison, the
          writes either side logged since that register's previous
          comparison (the whole file when it must be compared in
          full); added once per run *)
  | Obligations  (** proof obligations processed by [discharge_all] *)
  | Bmc_programs  (** programs enumerated by [Bmc.exhaustive] *)
  | Sweep_points  (** sweep points evaluated by [Workload.Sweep] *)
  (* Sched class: varies with pool size, session-cache and
     compile-cache hits. *)
  | Plan_binds  (** {!Machine.State.bind_plan} calls (per session) *)
  | Sessions  (** simulation sessions created (per domain) *)
  | Pool_tasks  (** tasks executed by an {!Exec.Pool} (any path) *)
  | Pool_stolen  (** tasks executed by a spawned worker domain *)
  | Pool_helped  (** tasks the submitting thread ran while waiting *)
  | Pool_inline  (** tasks run inline by a size-1 pool *)
  | Pool_queue_hwm  (** queued-task high-water mark (a [Max] counter) *)
  | Serve_requests  (** requests admitted by the [pipegen serve] loop *)
  | Serve_cache_hits  (** verdicts served from the content-addressed cache *)
  | Serve_cache_misses  (** verdict-cache lookups that had to evaluate *)
  | Serve_coalesced  (** duplicate in-batch requests folded into one run *)
  | Serve_queue_hwm  (** admission batch depth high-water mark (a [Max]) *)
  | Serve_shed  (** requests rejected [Overloaded] by admission control *)
  | Serve_retries  (** transient-failure task retries by the serve loop *)
  | Serve_journal_replayed  (** requests recovered from the journal *)
  | Pool_restarts  (** dead worker domains respawned by {!Exec.Pool.heal} *)

val all : id list
(** Every counter, in declaration order. *)

val name : id -> string
(** Stable snake_case name, e.g. ["plan_ops"]. *)

val is_work : id -> bool
(** [true] for the Work (deterministic) class. *)

val is_max : id -> bool
(** [true] for high-water-mark counters: {!record_max} aggregation
    (max across domains, max over time) instead of summing. *)

(** {1 Counting (hot path)} *)

val bump : id -> unit
(** [add id 1]. *)

val add : id -> int -> unit
(** Add [n] to this domain's cell.  No-op while disabled. *)

val record_max : id -> int -> unit
(** Raise this domain's cell to [n] if [n] is larger.  For [Max]
    counters.  No-op while disabled. *)

(** {1 Control} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Counting is on by default.  The flag is global (all domains). *)

val with_disabled : (unit -> 'a) -> 'a
(** Run [f] with counting off, restoring the previous state (also on
    exceptions).  The bench uses this around repetition-timing loops
    and the fault campaign, whose iteration counts are wall-clock
    dependent and would make the totals nondeterministic. *)

val with_discarded : (unit -> 'a) -> 'a
(** Run [f] with this domain's counts going to a scratch cell that is
    thrown away afterwards.  Unlike {!with_disabled} the effect is
    local to the calling domain, so it is safe inside pool workers:
    other domains keep counting normally.  For replays of work that
    was already accounted. *)

val reset : unit -> unit
(** Zero every domain's cells (including domains already joined). *)

(** {1 Snapshots} *)

val get : id -> int
(** Aggregated value of one counter (sum, or max for [Max] kinds). *)

val snapshot : unit -> (string * int) list
(** All counters, aggregated across domains, sorted by name. *)

val work_snapshot : unit -> (string * int) list
(** The Work class only — the deterministic [WORK.*] scores. *)

val sched_snapshot : unit -> (string * int) list
(** The Sched class only — informational [SCHED.*] values. *)
