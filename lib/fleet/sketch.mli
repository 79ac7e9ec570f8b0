(** Streaming distribution sketches for fleet aggregation.

    Fixed-bin histograms (bins chosen from each metric's physical
    range, never from the data) over four per-device metrics —
    forward-progress rate (instr/s), total energy (J), reboot count,
    outage-survival fraction — kept for the whole fleet and per cohort,
    plus a bounded worst-tail device list and a bounded failed-id list.
    O(1) memory in the population size.

    Devices must be folded in canonical id order: the histogram counts
    are order-independent, but the float [sum] accumulators are not
    (float addition does not associate), and byte-identical output at
    any [-j] / [--workers] and across kill/resume is part of the fleet
    contract.  The runner enforces the order; this module just folds.

    {!render} / {!parse} round-trip the full state as canonical JSON
    (embedded bin edges, sparse bins, [%.17g] floats) — the format of
    the aggregation journal and of the final [fleet.json].  {!of_json}
    is the one reader of both: the runner resumes through it and
    [Sweep_analyze.Fleet_view] renders what it returns. *)

type hist = {
  edges : float array;  (** upper edge per bin, ascending, static *)
  bins : int array;
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

val quantile : hist -> float -> float option
(** Upper edge of the first bin whose cumulative count reaches
    [ceil (q * count)], clamped to the observed [min, max]; [None] on
    an empty histogram.  Error bounded by the bin width. *)

val mean : hist -> float option

type metrics = {
  rate : float;      (** instructions per total (on+off) second *)
  energy : float;    (** total joules *)
  reboots : float;   (** outage count *)
  survival : float;  (** 1 - deaths/outages; 1.0 with no outage *)
}

val metrics_of : Sweep_sim.Driver.outcome -> metrics

type group = {
  mutable devices : int;
  mutable failed : int;
  h_rate : hist;
  h_energy : hist;
  h_reboots : hist;
  h_survival : hist;
}

type tail = {
  t_id : int;
  t_arm : string;
  t_rate : float;
  t_energy : float;
  t_reboots : int;
  t_survival : float;
  t_replay : string;
      (** full sweepsim argument line replaying this device exactly *)
}

val tail_keep : int
(** Worst devices kept (8), ranked ascending by (rate, id) — the kept
    set is independent of arrival order. *)

val failed_keep : int
(** Failed device ids kept (32); the count is always exact. *)

type t = {
  total : group;
  mutable cohort_order : string list;
  cohorts : (string, group) Hashtbl.t;
  mutable tails : tail list;
  mutable failed_ids : int list;
  mutable failed_total : int;
}

val create : unit -> t
val cohort : t -> string -> group
(** The named cohort's group, created on first use. *)

val fold_device :
  t -> id:int -> arm:string -> replay:string -> Sweep_sim.Driver.outcome ->
  unit
val fold_failure : t -> id:int -> arm:string -> unit
(** A device whose simulation failed (recorded, not summarised):
    counted in [failed] / [failed_total], first {!failed_keep} ids
    kept. *)

val devices : t -> int
(** Devices folded so far (succeeded + failed) — the journal's resume
    cursor. *)

val render : t -> string
(** Canonical JSON of the full state. *)

val parse : string -> (t, string) result
val of_json : Sweep_util.Json.t -> (t, string) result
