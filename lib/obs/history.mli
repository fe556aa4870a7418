(** Per-commit performance history: [BENCH_history.jsonl].

    One line per bench run, appended by [bench --history]: the
    commit-ish, the epoch, and the run's full export (the same
    schema'd {!Export.entry} rows as [BENCH_pipeline.json]).  The
    history is what turns a single-snapshot baseline into a
    trajectory: trends are visible ([pipegen perf]), any two records
    diff against each other, and the [@check] gate compares the
    current run against a tolerance band over the last [k] records
    instead of ignoring timing fields.

    {2 Gate semantics}

    {ul
    {- [WORK.*] entries are deterministic work scores: every field is
       compared {e exactly} against the most recent record.  Any
       difference is a regression (or an intentional change that must
       be re-recorded).}
    {- [SCHED.*] entries are scheduling-dependent and never gated.}
    {- Timing entries ([ns_per_run]) gate on a band over the last [k]
       records: with at least [min_records] prior observations, the
       run fails if the current value falls outside
       [best * (1 +- tol)] — [best] is the minimum of the window for
       ns-like rows (lower is better) and the maximum for rows marked
       {!Export.entry.higher_is_better} (ratios such as speedups).  The
       current run's entry carries the direction; a row's name plays no
       part.  The generous
       default tolerance absorbs shared-host noise while still
       catching sustained erosion.}} *)

type record = {
  commit : string;  (** short commit-ish, or ["unknown"] *)
  epoch : float;  (** seconds since the epoch, at append time *)
  entries : Export.entry list;
}

val schema_version : string

(** {1 The JSONL file} *)

val append : path:string -> record -> unit
(** Append one record as a single minified JSON line. *)

val read : path:string -> (record list, string) result
(** All records, oldest first.  A missing file is an error (callers
    treat it as the empty history explicitly). *)

val record_to_json : record -> Json.t
val record_of_json : Json.t -> (record, string) result

(** {1 Repository discovery} *)

val repo_root : unit -> string option
(** Walk up from the cwd to the first directory containing [.git] —
    works from inside dune's [_build] sandbox, where the cwd is a
    mirror of the source tree without the git metadata. *)

val default_path : unit -> string
(** [<repo_root>/BENCH_history.jsonl] (cwd-relative if no repository
    was found). *)

val current_commit : unit -> string
(** The short hash of [HEAD], read directly from [.git] (no
    subprocess); ["unknown"] when it cannot be resolved. *)

(** {1 Trend gate} *)

type gate_kind = Work | Timing

type gate = {
  g_name : string;  (** metric row, e.g. ["WORK.counters.plan_ops"] *)
  g_baseline : float;
  g_current : float;  (** [nan] when the row disappeared *)
  g_delta_pct : float;
  g_kind : gate_kind;
}

val trend_gate :
  ?k:int ->
  ?tol:float ->
  ?min_records:int ->
  history:record list ->
  Export.entry list ->
  gate list
(** Regressed rows of the current run against the history (empty list:
    the gate passes).  Defaults: [k = 5], [tol = 0.5],
    [min_records = 3] (timing rows with fewer prior observations are
    not gated; [WORK.*] rows gate from the first record). *)

val pp_gates : Format.formatter -> gate list -> unit
(** The human-readable regression table: name, baseline, current,
    delta. *)

(** {1 Trends and diffs (pipegen perf)} *)

val flatten : Export.entry list -> (string * float) list
(** Every numeric field of every entry as a flat
    [(metric, value)] list: ["<exp>.ns_per_run"], ["<exp>.cpi"],
    ["<exp>.instructions"], ["<exp>.cycles"], ["<exp>.<breakdown
    key>"]. *)

val select : record list -> string -> (record, string) result
(** Find a record by selector: a negative index from the end
    (["-1"] = newest), a non-negative index from the start, or a
    commit prefix. *)

type diff_row = {
  d_name : string;
  d_a : float option;
  d_b : float option;  (** [None]: the metric is absent on that side *)
}

val diff : record -> record -> diff_row list
(** Metrics that differ between two records (exact comparison),
    sorted by name. *)

val pp_diff : a:record -> b:record -> Format.formatter -> diff_row list -> unit

val pp_trends : ?k:int -> Format.formatter -> record list -> unit
(** Per-metric trend over the last [k] records (default 10): oldest
    and newest values with the relative change, timing rows and
    [WORK.*] rows separated. *)
