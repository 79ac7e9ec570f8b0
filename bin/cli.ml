(* Command-line plumbing shared by the batch tools (sweepexp, sweeptune
   explore, sweepfleet run) and the report renderers. *)

open Cmdliner
module Executor = Sweep_exp.Executor
module Supervisor = Sweep_exp.Supervisor
module Rcache = Sweep_exp.Rcache
module Exit_code = Sweep_exp.Exit_code
module Metrics = Sweep_obs.Metrics
module Openmetrics = Sweep_obs.Openmetrics
module Report = Sweep_analyze.Report

type run = {
  jobs : int;
  metrics : bool;
  metrics_out : string option;
  status_file : string option;
  metrics_export : string option;
  flight_dir : string option;
  attrib_dir : string option;
  workers : int;
  retries : int;
  worker_timeout : float;
  respawn_budget : int;
  supervise_seed : int;
  chaos_kill_after : int option;
  cache_dir : string option;
  cache_max_bytes : int option;
}

let path_opt names docv doc =
  Arg.(value & opt (some string) None & info names ~docv ~doc)

let run_term =
  let open Term.Syntax in
  let+ jobs =
    Arg.(value & opt int (Domain.recommended_domain_count ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for in-process execution (default: the \
                   machine's recommended domain count; 1 = sequential); \
                   does not affect output.")
  and+ metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Enable the metrics registry (sim.*, driver.*, exp.* \
                   series) and dump it to stderr after the run.")
  and+ metrics_out =
    path_opt [ "metrics-out" ] "FILE"
      "Enable the metrics registry and write a JSON snapshot to FILE after \
       the run (readable by sweeptrace)."
  and+ status_file =
    path_opt [ "status-file" ] "FILE"
      "Maintain an atomically-updated live status snapshot (queued, \
       running, done, failed, per-job progress, ETA) at FILE while the run \
       executes; enables heartbeats."
  and+ metrics_export =
    path_opt [ "metrics-export" ] "FILE"
      "Enable the metrics registry and periodically re-export it to FILE in \
       OpenMetrics (Prometheus text) format; enables heartbeats."
  and+ flight_dir =
    path_opt [ "flight-dir" ] "DIR"
      "Arm the crash flight recorder: every captured job failure dumps a \
       postmortem-*.jsonl artifact (recent events + metrics snapshot) into \
       DIR, readable by $(b,sweeptrace postmortem)."
  and+ attrib_dir =
    path_opt [ "attrib-dir" ] "DIR"
      "Arm per-PC attribution for every executed job and write DIR/<job \
       key>.attrib.json (+ .folded collapsed stacks) per job.  Profiles are \
       byte-identical at any -j; analyze with $(b,sweeptrace profile)."
  and+ workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Run jobs on N supervised worker $(i,processes) (the \
                   binary re-execs itself) instead of in-process domains: \
                   dead or hung workers are respawned with seeded backoff, \
                   in-flight jobs retry up to --retries times before \
                   quarantine, and results are byte-identical to \
                   $(b,--workers 0) (the default, in-process -j mode).")
  and+ retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"K"
             ~doc:"Supervised mode: re-run a job up to K times after a \
                   worker death before quarantining it as a failure.")
  and+ worker_timeout =
    Arg.(value & opt float 60.0
         & info [ "worker-timeout" ] ~docv:"SECONDS"
             ~doc:"Supervised mode: SIGKILL a busy worker that has been \
                   silent (no heartbeat, no result) this long; 0 disables \
                   the liveness check.")
  and+ respawn_budget =
    Arg.(value & opt int 8
         & info [ "respawn-budget" ] ~docv:"N"
             ~doc:"Total worker respawns allowed for the run; once \
                   exhausted the run finishes degraded on surviving \
                   workers (exit code 2).")
  and+ supervise_seed =
    Arg.(value & opt int 42
         & info [ "supervise-seed" ] ~docv:"N"
             ~doc:"Seed for the respawn backoff jitter and the chaos victim \
                   chooser (deterministic schedules).")
  and+ chaos_kill_after =
    Arg.(value & opt (some int) None
         & info [ "chaos-kill-after" ] ~docv:"N"
             ~doc:"Fault injection for tests: SIGKILL one seeded-chosen \
                   worker after N completed jobs (supervised mode only).")
  and+ cache_dir =
    path_opt [ "cache-dir" ] "DIR"
      "Persistent content-addressed result cache: jobs whose (key, config \
       digest) is already cached skip simulation; executed jobs are stored \
       back.  Entries are checksummed — corrupt or truncated ones are \
       warned about and re-simulated, never served."
  and+ cache_max_bytes =
    Arg.(value & opt (some int) None
         & info [ "cache-max-bytes" ] ~docv:"BYTES"
             ~doc:"Result-cache size bound; least-recently-used entries are \
                   evicted past it (default 268435456).")
  in
  { jobs; metrics; metrics_out; status_file; metrics_export; flight_dir;
    attrib_dir; workers; retries; worker_timeout; respawn_budget;
    supervise_seed; chaos_kill_after; cache_dir; cache_max_bytes }

let check ~prog r =
  let bad fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "%s: %s\n" prog s; false) fmt
  in
  if r.jobs < 1 then bad "-j must be at least 1 (got %d)" r.jobs
  else if r.workers < 0 then bad "--workers must be >= 0 (got %d)" r.workers
  else true

let exec_config ?rollup ?progress ?heartbeat_every r =
  Executor.set_workers r.jobs;
  if r.metrics || r.metrics_out <> None || r.metrics_export <> None then
    Metrics.set_enabled true;
  let status =
    Option.map
      (fun path -> Sweep_exp.Status.create ~path ?rollup ~workers:r.jobs ())
      r.status_file
  in
  let export =
    Option.map (fun path -> Openmetrics.exporter ~path ()) r.metrics_export
  in
  let flight =
    Option.map (fun dir -> Sweep_obs.Flight.arm ~dir ()) r.flight_dir
  in
  Option.iter Sweep_util.Durable.mkdir_p r.attrib_dir;
  let rcache =
    Option.map
      (fun dir -> Rcache.create ?max_bytes:r.cache_max_bytes dir)
      r.cache_dir
  in
  (* Heartbeats default on as soon as something consumes them, off
     otherwise so plain runs keep the zero-telemetry hot loop. *)
  let heartbeat_every =
    match heartbeat_every with
    | Some n -> n
    | None ->
      if status <> None || export <> None then
        Sweep_obs.Heartbeat.default_every
      else 0
  in
  let distribute =
    if r.workers = 0 then None
    else
      Some
        (Supervisor.policy ~retries:r.retries
           ~worker_timeout_s:r.worker_timeout ~respawn_budget:r.respawn_budget
           ~seed:r.supervise_seed ?chaos_kill_after:r.chaos_kill_after
           ~workers:r.workers ())
  in
  Executor.config ?progress ~heartbeat_every ?status ?flight ?export
    ?attrib_dir:r.attrib_dir ?rcache ?distribute ()

let wind_down r (cfg : Executor.config) =
  Supervisor.shutdown ();
  Option.iter Openmetrics.flush cfg.export;
  Option.iter
    (fun path ->
      Metrics.write_json path (Metrics.snapshot ());
      Printf.eprintf "metrics snapshot written to %s\n" path)
    r.metrics_out;
  if r.metrics then prerr_string (Metrics.render (Metrics.snapshot ()));
  Option.iter
    (fun rc ->
      let s = Rcache.stats rc in
      Printf.eprintf
        "result cache: %d hit(s), %d miss(es), %d evicted, %d corrupt\n%!"
        s.Rcache.hits s.Rcache.misses s.Rcache.evictions s.Rcache.corrupt)
    cfg.rcache

let finish ~prog ?failures r cfg =
  wind_down r cfg;
  let sup = Supervisor.stats () in
  if sup.Supervisor.degraded then
    Printf.eprintf
      "%s: degraded completion — respawn budget exhausted, finished on \
       surviving workers\n"
      prog;
  Exit_code.of_run ~degraded:sup.Supervisor.degraded
    ~failures:(Option.value failures ~default:sup.Supervisor.quarantined)

let format_arg =
  let format_conv =
    Arg.conv
      ( (fun s ->
          match Report.format_of_string (String.lowercase_ascii s) with
          | Some f -> Ok f
          | None -> Error (`Msg ("unknown format " ^ s))),
        fun fmt f ->
          Format.pp_print_string fmt
            (match f with
            | Report.Text -> "text"
            | Report.Csv -> "csv"
            | Report.Markdown -> "md") )
  in
  Arg.(value & opt format_conv Report.Text
       & info [ "f"; "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,text), $(b,csv) or $(b,md).")

let output_arg =
  path_opt [ "o"; "output" ] "FILE" "Write to FILE instead of stdout."

let write_output out body =
  match out with
  | None -> print_string body
  | Some path -> (
    match Sweep_util.Durable.write_atomic path (fun oc -> output_string oc body) with
    | () -> Printf.eprintf "written to %s\n" path
    | exception Sys_error msg ->
      let prog = Filename.(remove_extension (basename Sys.executable_name)) in
      Printf.eprintf "%s: %s\n" prog msg;
      exit 1)

let eval cmd =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = Sweep_exp.Worker.argv_flag
  then exit (Sweep_exp.Worker.main ())
  else exit (Cmd.eval' cmd)
