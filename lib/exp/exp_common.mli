(** Shared machinery for the paper-reproduction experiments.

    Each experiment module regenerates one table or figure of the paper's
    evaluation (see DESIGN.md's per-experiment index) by running workload
    × design × environment matrices through {!Sweep_sim.Harness} and
    printing rows with {!Sweep_util.Table}. *)

type setting = {
  design : Sweep_sim.Harness.design;
  label : string;                      (** column label *)
  config : Sweep_machine.Config.t;
  options : Sweep_compiler.Pipeline.options;
}

val setting :
  ?label:string ->
  ?config:Sweep_machine.Config.t ->
  ?options:Sweep_compiler.Pipeline.options ->
  Sweep_sim.Harness.design ->
  setting

val sweep_nvm_search : setting
(** SweepCache with always-sequential buffer search (§4.4). *)

val sweep_empty_bit : setting
(** SweepCache with the empty-bit bypass — the paper's default. *)

val fig5_settings : setting list
(** ReplayCache, NVSRAM, SweepCache/NVM-search, SweepCache/empty-bit —
    the Fig. 5–7 comparison set (NVP is the implicit baseline). *)

val rf_office : unit -> Sweep_energy.Power_trace.t
val rf_home : unit -> Sweep_energy.Power_trace.t
val trace_of : Sweep_energy.Power_trace.kind -> Sweep_energy.Power_trace.t
(** Traces are memoised (behind a mutex — safe to call from worker
    domains) — every experiment sees identical power. *)

val power : ?farads:float -> Sweep_energy.Power_trace.t -> Sweep_sim.Driver.power
(** Harvested power with the paper's default 470 nF capacitor. *)

val all_names : string list
(** The 26 benchmark names, paper order. *)

val subset_names : string list
(** A 10-benchmark subset spanning the suite's behaviours, used by the
    multi-dimensional sweeps (capacitor/cache-size/propagation) to keep
    the harness runtime sane; printed in each affected table's header. *)

val power_key : Sweep_sim.Driver.power -> string
(** Canonical identity of a power environment (trace kind, capacitor,
    thresholds) — the power component of {!run_key}. *)

val key_of :
  label:string ->
  design:string ->
  power:string ->
  bench:string ->
  scale:float ->
  string
(** The canonical job key: ["label|design|power|bench|scale"].  {!Jobs}
    builds the same string from a declarative job description, so
    pre-executed jobs are found by the render-time {!run} calls. *)

val run_key :
  ?scale:float -> setting -> power:Sweep_sim.Driver.power -> string -> string

type summary = Results.summary = {
  outcome : Sweep_sim.Driver.outcome;
  mstats : Sweep_machine.Mstats.t;
  miss_rate : float;
  nvm_writes : int;
}
(** What the experiments keep from a run (see {!Results.summary}). *)

val compute :
  ?scale:float ->
  ?sim_budget_ns:float ->
  ?heartbeat:Sweep_obs.Heartbeat.t ->
  ?attrib_dir:string ->
  setting ->
  power:Sweep_sim.Driver.power ->
  string ->
  summary
(** Run one benchmark under one setting, bypassing the results store —
    the pure function the executor's worker domains evaluate.
    [?sim_budget_ns] (graceful partial stop with
    [outcome.completed = false]) and [?heartbeat] flow through to
    {!Sweep_sim.Driver.run}.  [?attrib_dir], an existing directory, arms
    attribution and writes [<dir>/<sanitised run_key>.attrib.json] and a
    [.folded] collapsed-stack file — byte-identical at any [-j]
    because the profile is a pure function of the job. *)

val run :
  ?scale:float ->
  setting ->
  power:Sweep_sim.Driver.power ->
  string ->
  summary
(** Like {!compute} but memoised through {!Results} on {!run_key}, so
    that e.g. Fig. 6 and Table 2 share NVP runs, and so that tables
    render from summaries the parallel executor already computed. *)

val nvp_time : ?scale:float -> power:Sweep_sim.Driver.power -> string -> float
(** Total (on+off) ns of the NVP baseline for the benchmark. *)

val speedup :
  ?scale:float -> setting -> power:Sweep_sim.Driver.power -> string -> float
(** NVP total time / setting total time. *)

val geomean : float list -> float
