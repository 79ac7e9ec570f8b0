(** Declarative fleet specification ([sweepfleet]'s input).

    One JSON object describes a whole device population: the base job
    (benchmark × design × power trace × scale × thresholds), an integer
    jitter envelope each device draws its private power perturbation
    from, and a weighted mixture of hardware cohorts (capacitor size,
    cache geometry, persist-buffer capacity).  Device instantiation
    ({!Device}) is a pure function of this record plus a device id, so
    the spec is the complete replay token for every device it
    generates.

    Spec file shape (defaults in brackets):
    {v
    { "schema_version": 1,
      "name": "office-1k", "devices": 1000, "seed": 42,
      "bench": "sha", "scale": 0.05 [1.0],
      "design": "sweep", "trace": "RFOffice",
      "v_max": 3.5, "v_min": 2.8,
      "jitter": { "max_shift_steps": 600000 [0],
                  "amp_spread_permille": 100 [0],
                  "max_drop_bp": 100 [0] },
      "cohorts": [ { "name": "small", "weight": 3 [1],
                     "farads": 470e-9, "cache_bytes": 4096,
                     "assoc": 2, "buffer_entries": 64 }, ... ] }
    v}
    All jitter bounds are integers (trace grid steps, permille,
    basis points) so device draws land exactly in the integer
    parameters of {!Sweep_exp.Jobs.jittered} — no float ever enters a
    device's canonical key. *)

val schema_version : int

type jitter = {
  max_shift_steps : int;
      (** trace right-rotation drawn from [0, max] (100 µs grid) *)
  amp_spread_permille : int;
      (** amplitude scale drawn from [1000 ± spread]; spread <= 999 so
          no device is scaled to zero power *)
  max_drop_bp : int;
      (** per-sample blackout odds drawn from [0, max] basis points *)
}

type arm = {
  arm_name : string;  (** cohort label; [a-zA-Z0-9._-] *)
  weight : int;       (** relative share of the population; >= 1 *)
  farads : float;
  cache_bytes : int;
  assoc : int;
  buffer_entries : int;
}

type t = {
  name : string;  (** fleet label; [a-zA-Z0-9._-] *)
  devices : int;
  seed : int;     (** root of every per-device stochastic draw *)
  bench : string;
  scale : float;
  design : Sweep_sim.Harness.design;
  trace : Sweep_energy.Power_trace.kind;
  v_max : float;
  v_min : float;
  jitter : jitter;
  arms : arm list;
}

val no_jitter : jitter
val default_arm : arm
(** Paper-default hardware (470 nF, 4 kB 2-way, 64 entries), weight 1 —
    what an absent [cohorts] array means. *)

val validate : t -> string list
(** Structural problems ([] means clean).  {!of_json} already rejects
    invalid specs; exposed for specs built in code. *)

val render : t -> string
(** Canonical JSON (fixed field order, [%.17g] floats) — the bytes
    {!digest} hashes, reproducible across processes. *)

val digest : t -> string
(** Hex digest of {!render} — guards the aggregation journal and the
    final report against a spec file edited mid-run. *)

val of_json : Sweep_util.Json.t -> (t, string) result
(** Parses and validates (first problem wins).  An absent [cohorts]
    array means a homogeneous fleet of {!default_arm}. *)

val load : string -> (t, string) result

val trace_of_name : string -> Sweep_energy.Power_trace.kind option
(** Case-insensitive canonical kind name ("RFOffice" / "rfoffice"). *)

val design_of_name : string -> Sweep_sim.Harness.design option
(** Short design names matching sweepsim's [-d] flag: nvp, wt, nvsram,
    nvsram-e, replay, nvmr, sweep. *)

val design_name : Sweep_sim.Harness.design -> string
(** Inverse of {!design_of_name}. *)
