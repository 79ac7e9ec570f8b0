(** Renderer for [fleet.json], sweepfleet's aggregated fleet report.

    The file is read with the fleet library's own parsers
    ({!Sweep_fleet.Spec.of_json}, {!Sweep_fleet.Sketch.of_json}) and
    quantiles follow {!Sweep_fleet.Sketch.quantile}.  Rendering goes
    through {!Report}, so text/CSV/markdown come for free
    ([sweeptrace fleet], [sweepfleet report]). *)

type t = {
  spec : Sweep_fleet.Spec.t;
  spec_digest : string;  (** as recorded in the file *)
  state : Sweep_fleet.Sketch.t;
}

val load : string -> (t, string) result

val report : source:string -> t -> Report.t
(** Four sections: fleet summary, whole-fleet distributions
    (mean/min/p50/p90/p99/p99.9/max per metric), per-cohort breakdown,
    and the tail-device table with exact sweepsim replay command lines
    in its notes. *)
