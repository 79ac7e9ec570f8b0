(** Parallel job execution on an OCaml 5 domain pool.

    [execute jobs] deduplicates the job list by canonical key, drops
    jobs whose summaries are already in {!Results}, and evaluates the
    rest with [min workers n] domains pulling from a shared atomic
    cursor.  Each worker runs {!Exp_common.compute} — a pure function of
    the job — and publishes into the mutex-guarded store, so the store
    contents are independent of worker count and schedule; the
    determinism tests assert [-j 1] and [-j 4] snapshots are equal.

    Domain-safety of the substrate this relies on (audited in
    DESIGN.md): traces are pre-materialised in the parent domain and
    immutable afterwards; compiler gensym counters are per-invocation;
    machines, stats and RNGs are per-job instances. *)

val set_workers : int -> unit
(** Process-wide default worker count (the -j flag); clamped to >= 1. *)

val workers : unit -> int
(** Current default (initially [Domain.recommended_domain_count ()]). *)

(** Per-run telemetry/reporting configuration, threaded through
    {!execute} — replaces the old global progress toggle. *)
type config = {
  progress : bool;
      (** print "[k/n] key (elapsed)" per finished job to stderr
          (mutex-serialised across workers) *)
  heartbeat_every : int;
      (** instructions between in-run {!Sweep_obs.Event.Heartbeat}
          beats; [<= 0] disables heartbeats entirely *)
  status : Status.t option;
      (** live status.json aggregation; fed by job transitions and (when
          [heartbeat_every > 0]) heartbeat observers *)
  flight : Sweep_obs.Flight.t option;
      (** crash flight recorder: its ring is teed alongside the
          installed sink for the duration of {!execute}, and every
          captured job failure dumps a post-mortem artifact *)
  export : Sweep_obs.Openmetrics.exporter option;
      (** periodic OpenMetrics re-export of the metrics registry *)
  attrib_dir : string option;
      (** when set, every executed job runs with per-PC attribution
          armed and writes [<dir>/<sanitised key>.attrib.json] (plus a
          [.folded] collapsed-stack twin); profiles are a pure function
          of the job, so they are byte-identical at any [-j] *)
  rcache : Rcache.t option;
      (** persistent content-addressed result cache: jobs whose
          (key, config digest) is cached skip simulation entirely
          (emitting {!Sweep_obs.Event.Cache_hit}); executed jobs are
          stored back *)
  distribute : Supervisor.policy option;
      (** when set, pending jobs run on a supervised multi-process
          worker fleet (see {!Supervisor}) instead of the in-process
          domain pool; outputs are byte-identical either way *)
}

val config :
  ?progress:bool ->
  ?heartbeat_every:int ->
  ?status:Status.t ->
  ?flight:Sweep_obs.Flight.t ->
  ?export:Sweep_obs.Openmetrics.exporter ->
  ?attrib_dir:string ->
  ?rcache:Rcache.t ->
  ?distribute:Supervisor.policy ->
  unit ->
  config
(** Everything off/absent by default. *)

val map : ?workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map on the same domain pool as
    {!execute}: results line up with inputs regardless of worker count.
    [f] must be safe to call from multiple domains.  With 1 worker (or a
    single element) no domain is spawned. *)

val execute :
  ?workers:int ->
  ?config:config ->
  ?budget:(Jobs.t -> float option) ->
  Jobs.t list ->
  unit
(** Populate {!Results} with every job's summary.  [workers] overrides
    the process default.  With 1 worker no domain is spawned.  If a
    worker raises (e.g. {!Sweep_sim.Driver.Stagnation}), the remaining
    jobs still finish and the first exception is re-raised.  Each job
    emits [Job_start]/[Job_done] events when a sink is installed and
    bumps [exp.*] metrics when the registry is enabled.

    [config] attaches per-run telemetry (progress lines, heartbeats,
    live status, flight recorder, OpenMetrics export); defaults to
    [config ()].  [budget] maps a job to an optional graceful
    simulated-time ceiling in ns (sweeptune's early-stop); a
    budget-stopped job stores a summary with
    [outcome.completed = false]. *)
