(** Cross-run comparison with machine-readable verdicts.

    A run is loaded from a results JSONL file, a bench history file
    (most recent entry), or a [--metrics-out] snapshot — autodetected —
    and flattened to key -> numeric series.  Every series of every
    common key is compared; the per-field direction declared in
    {!Sweep_exp.Results.numeric_fields} decides whether a change beyond
    the threshold is a regression or an improvement.  [`Info] fields
    never gate, [elapsed_s] (wall-clock noise) is dropped entirely, and
    a change is a verdict only when it is {e strictly} beyond the
    threshold. *)

type verdict = Regression | Improvement | Unchanged

type delta = {
  key : string;
  field : string;
  base : float;
  cur : float;
  delta_pct : float;  (** (cur - base) / |base| * 100 *)
  direction : Sweep_exp.Results.direction;
  verdict : verdict;
}

type t = {
  threshold_pct : float;
  deltas : delta list;
  missing_in_cur : string list;
  missing_in_base : string list;
}

type run = (string * (string * float) list) list

val zero_base_sentinel : float
(** Reported magnitude of [delta_pct] when the baseline is 0 and the
    current value is not (relative change undefined). *)

val numeric : Sweep_obs.Metrics.snapshot -> (string * float) list
(** Flatten a metrics snapshot for diffing: counters and gauges as-is,
    a histogram as [name.count] and [name.sum]. *)

val load : string -> (run, string) result

val compare_runs :
  ?direction:(string -> Sweep_exp.Results.direction) ->
  threshold_pct:float ->
  run ->
  run ->
  (t, string) result
(** [Error] when the two runs share no keys.  [?direction] overrides
    the per-field direction map (default
    {!Sweep_exp.Results.direction}) — {!Profile_view.diff} passes a
    profile-specific map where time/energy/wear series are
    [`Lower_better]. *)

val diff_files :
  threshold_pct:float -> string -> string -> (t, string) result
(** [diff_files ~threshold_pct base cur]. *)

val regressions : t -> delta list
val improvements : t -> delta list
val has_regressions : t -> bool

val render_text : t -> string
(** Changed series only, one per line, plus a summary count. *)

val render_json : t -> string
(** Machine-readable verdict document ([schema_version] 1): counts,
    key coverage, and every changed delta. *)
