(** Command-line plumbing shared by the host tools: the run-control
    options of the batch tools ([sweepexp], [sweeptune explore],
    [sweepfleet run]), the executor configuration they build, their run
    epilogue, the report [-f]/[-o] pair and the entry point that serves
    supervised worker processes. *)

open Cmdliner

(** The run-control options, one field per flag. *)
type run = {
  jobs : int;  (** [-j] *)
  metrics : bool;
  metrics_out : string option;
  status_file : string option;
  metrics_export : string option;
  flight_dir : string option;
  attrib_dir : string option;
  workers : int;  (** supervised worker processes; 0 = in-process *)
  retries : int;
  worker_timeout : float;
  respawn_budget : int;
  supervise_seed : int;
  chaos_kill_after : int option;
  cache_dir : string option;
  cache_max_bytes : int option;
}

val run_term : run Term.t

val check : prog:string -> run -> bool
(** [false] after printing a [prog:]-prefixed message to stderr when an
    option is out of range; the caller exits {!Sweep_exp.Exit_code.usage}. *)

val exec_config :
  ?rollup:(string -> string) ->
  ?progress:bool ->
  ?heartbeat_every:int ->
  run ->
  Sweep_exp.Executor.config
(** Set the process-wide worker count, enable the metrics registry when
    any metrics output is requested, and build the executor
    configuration.  [rollup] puts the status file in cohort-rollup
    mode.  [heartbeat_every] defaults to
    {!Sweep_obs.Heartbeat.default_every} when a status file or metrics
    export consumes heartbeats, and to 0 otherwise. *)

val wind_down : run -> Sweep_exp.Executor.config -> unit
(** Stop the worker processes, flush the OpenMetrics export, write
    [--metrics-out], render [--metrics] to stderr and print the
    result-cache line.  An interrupted run ends here. *)

val finish :
  prog:string -> ?failures:int -> run -> Sweep_exp.Executor.config -> int
(** {!wind_down}, then the degraded-completion line and the exit code of
    a completed run.  [failures] defaults to the jobs the supervisor
    quarantined. *)

val format_arg : Sweep_analyze.Report.format Term.t
(** [-f/--format] for report renderers. *)

val output_arg : string option Term.t
(** [-o/--output]: where {!write_output} puts the report. *)

val write_output : string option -> string -> unit
(** Print, or commit to the [-o] path; a path it cannot write exits 1. *)

val eval : int Cmd.t -> 'a
(** Exit with [cmd]'s result, or run the worker frame loop when the
    supervisor spawned this process. *)
