(** Registry of all paper-reproduction experiments.

    Every experiment is split into a declarative phase — [jobs] lists
    the workload × design × environment matrix it needs — and a [render]
    phase that prints its table(s) from the {!Results} store.  Running
    an experiment (or several) first batch-executes the deduplicated
    union of their jobs on the {!Executor} pool, then renders
    sequentially, so the output is byte-identical at any [-j]. *)

type t = {
  name : string;            (** CLI id, e.g. "fig5" *)
  title : string;           (** what it regenerates *)
  heavy : bool;             (** multi-minute sweeps (excluded from "quick") *)
  jobs : unit -> Jobs.t list;
      (** the simulations the table(s) need (may be empty) *)
  render : unit -> unit;
      (** prints the table(s) to stdout, reading {!Results}; computes
          lazily through {!Exp_common.run} for anything not
          pre-executed *)
}

val all : t list

val find : string -> t option

val plan : t list -> Jobs.t list
(** Deduplicated union of the experiments' job matrices — e.g. Fig 6
    and Table 2 share their NVP runs. *)

val keys : t list -> (string * string) list
(** [(owning experiment, canonical job key)] for every planned job, in
    plan order — what [sweepexp --list] prints, and what sweeptune's
    dry-run planner uses to show which evaluations a search would
    schedule without running any. *)

val run : ?config:Executor.config -> t -> unit
(** Execute the experiment's jobs (at {!Executor.workers}), then
    render.  [config] attaches per-run telemetry (see
    {!Executor.config}). *)

val run_many : ?config:Executor.config -> t list -> unit
(** Batch-execute the union of the given experiments' jobs, then render
    each in order. *)
