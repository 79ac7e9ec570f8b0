(** Declarative job descriptions for the experiment stack.

    A job is a pure description of one simulation — (setting, power
    spec, benchmark, scale) plus the experiment that declared it — with
    a canonical key matching {!Exp_common.run_key}.  Experiment modules
    declare their workload × design × environment matrices as job lists;
    {!Executor} deduplicates and evaluates them on a domain pool, and
    the render phase then reads every summary from {!Results} without
    launching a single simulation. *)

type power_spec =
  | Unlimited
  | Harvested of {
      kind : Sweep_energy.Power_trace.kind;
      farads : float;
      v_max : float;
      v_min : float;
    }
  | Jittered of {
      kind : Sweep_energy.Power_trace.kind;
      farads : float;
      v_max : float;
      v_min : float;
      shift_steps : int;  (** right-rotation in 100 µs grid steps *)
      amp_permille : int;  (** amplitude scale ×1/1000 (1000 = unity) *)
      drop_bp : int;  (** per-sample blackout odds in basis points *)
      drop_seed : int;  (** seed of the dropout mask *)
    }
(** Power environment by value rather than by trace instance, so a job
    list can be built, keyed and deduplicated without materialising any
    60-second trace.  [Jittered] is a per-device perturbation of a
    shared base trace (fleet simulation): all four jitter parameters
    are integers so the canonical key renders them exactly — key-equal
    specs always simulate identically. *)

val unlimited : power_spec

val harvested :
  ?farads:float ->
  ?v_max:float ->
  ?v_min:float ->
  Sweep_energy.Power_trace.kind ->
  power_spec
(** Defaults (470 nF, 3.5 V / 2.8 V) match {!Exp_common.power} and
    {!Sweep_sim.Driver.harvested}, so declarative jobs and render-time
    power values share keys. *)

val jittered :
  ?farads:float ->
  ?v_max:float ->
  ?v_min:float ->
  shift_steps:int ->
  amp_permille:int ->
  drop_bp:int ->
  drop_seed:int ->
  Sweep_energy.Power_trace.kind ->
  power_spec
(** Same defaults as {!harvested}.  Raises [Invalid_argument] on a
    negative shift or amplitude, or [drop_bp] outside [0, 10000]. *)

val jitter_tag :
  shift_steps:int -> amp_permille:int -> drop_bp:int -> drop_seed:int ->
  string
(** The trace tag a [Jittered] spec stamps on its transformed trace
    (rendered as [ts%d.am%d.dp%d.ds%d]) — the link between {!power_id}
    and {!Exp_common.power_key}. *)

val apply_jitter :
  Sweep_energy.Power_trace.t ->
  shift_steps:int ->
  amp_permille:int ->
  drop_bp:int ->
  drop_seed:int ->
  Sweep_energy.Power_trace.t
(** The canonical jitter pipeline — {!Sweep_energy.Power_trace.jitter}
    (rotate by [shift_steps] grid steps, scale by [amp_permille]/1000,
    drop [drop_bp] basis points of samples), then tagging with
    {!jitter_tag}.  Exposed so sweepsim's replay flags reproduce a fleet
    device's trace bit-for-bit. *)

val power_id : power_spec -> string
(** Equals {!Exp_common.power_key} of {!to_power} of the spec. *)

val to_power : power_spec -> Sweep_sim.Driver.power
(** Materialises the trace through {!Exp_common.trace_of} (memoised,
    mutex-guarded).  A [Jittered] spec jitters the memoised base trace
    into a fresh lazy trace — per-device traces are transient, never
    cached. *)

val prewarm : power_spec -> unit
(** Materialise just the shared base trace (executor parent, before
    spawning domains) without building any per-device jittered copy. *)

type t = {
  exp : string;    (** experiment id owning the JSONL line, e.g. "fig5" *)
  setting : Exp_common.setting;
  power : power_spec;
  bench : string;
  scale : float;
}

val job :
  exp:string -> ?scale:float -> Exp_common.setting -> power:power_spec ->
  string -> t

val key : t -> string
(** Canonical key — identical to the {!Exp_common.run_key} the render
    phase computes for the same (setting, power, bench, scale). *)

val matrix :
  exp:string ->
  ?scale:float ->
  ?powers:power_spec list ->
  Exp_common.setting list ->
  string list ->
  t list
(** Cross product powers × settings × benches (powers default to
    [[Unlimited]]). *)

val dedup : t list -> t list
(** Drop jobs whose key already appeared earlier in the list (first
    occurrence wins — its [exp] tag owns the JSONL line). *)
