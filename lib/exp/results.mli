(** Structured results store for the experiment stack.

    Every simulation the harness executes — whether through the parallel
    {!Executor} or the sequential render-time path in
    {!Exp_common.run} — lands here, keyed by the job's canonical key
    (see {!Jobs.key}).  The store is a mutex-guarded hashtable, safe to
    populate from multiple domains; insertion keeps the first value so
    repeated lookups return the same physical summary.

    Alongside the in-memory store, an optional JSONL sink appends one
    machine-readable line per executed job to
    [<dir>/<experiment>.jsonl], giving the repo a perf trajectory that
    scripts can consume without scraping ASCII tables. *)

type summary = {
  outcome : Sweep_sim.Driver.outcome;
  mstats : Sweep_machine.Mstats.t;
  miss_rate : float;
  nvm_writes : int;
}
(** What the experiments keep from a run.  The full machine (with its
    16 MB NVM image) is dropped immediately — hundreds of cached runs
    would otherwise exhaust memory. *)

val find : string -> summary option

val add : key:string -> summary -> summary
(** [add ~key s] inserts [s] unless the key is already present and
    returns the stored summary (the existing one on a duplicate). *)

val mem : string -> bool
val size : unit -> int

val clear : unit -> unit
(** Empty the store and the failure log (tests; long-lived sessions
    re-sweeping). *)

type failure = { key : string; error : string; backtrace : string }
(** A job or render that raised instead of producing a summary. *)

val record_failure : key:string -> error:string -> backtrace:string -> unit
(** Thread-safe; called by the executor's workers so one failing job
    (e.g. {!Sweep_sim.Driver.Stagnation}) is a structured result, not a
    pool-tearing exception. *)

val failures : unit -> failure list
(** In recording order. *)

val snapshot : unit -> (string * summary) list
(** All entries, sorted by key — the determinism tests compare the
    snapshots of a [-j 1] and a [-j 4] execution. *)

(** {2 JSONL sink} *)

val set_dir : string option -> unit
(** [set_dir (Some dir)] enables the sink; [None] (the default)
    disables it. *)

val dir : unit -> string option

val set_current_experiment : string -> unit
(** Names the experiment whose render phase is running, so summaries
    computed lazily at render time are attributed to the right file. *)

val current_experiment : unit -> string

val schema_version : int
(** Version tag stamped into every line ([schema_version] field).
    Bumped whenever the layout changes; see README "Results schema". *)

val iso8601 : float -> string
(** UTC ISO-8601 rendering of a Unix epoch ([2026-08-05T12:00:00Z]). *)

type direction = [ `Lower_better | `Higher_better | `Info ]
(** How a change in a numeric field should be judged.  [`Info] fields
    are informational only and never gate a regression verdict. *)

val numeric_fields : (string * direction) list
(** Every numeric field {!json_line} emits, with its direction — the
    schema accessor [sweeptrace diff] consumes; kept next to
    {!json_line} so a layout change updates both. *)

val derived_fields : (string * direction) list
(** Series derived from the raw fields ([total_ns], [total_joules]). *)

val direction : string -> direction
(** Direction of a raw or derived field ([`Info] for unknown names). *)

val json_line :
  ?ts:float ->
  exp:string ->
  key:string ->
  design:string ->
  label:string ->
  power:string ->
  bench:string ->
  scale:float ->
  elapsed_s:float ->
  summary ->
  string
(** The line {!emit} writes; [ts] (default now) is the emission time.
    Exposed for the schema tests. *)

val emit :
  exp:string ->
  key:string ->
  design:string ->
  label:string ->
  power:string ->
  bench:string ->
  scale:float ->
  elapsed_s:float ->
  summary ->
  unit
(** Commit one JSON line for an executed job to a {!Sweep_util.Durable}
    log (no-op when the sink is disabled); atomic across domains. *)
