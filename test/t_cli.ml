(* The run-control flags shared by sweepexp, sweeptune explore and
   sweepfleet run: what each flag set turns into as an executor
   configuration, and which values are usage errors. *)

module Executor = Sweep_exp.Executor
module Metrics = Sweep_obs.Metrics

let check = Alcotest.check

let parse args =
  let cmd = Cmdliner.Cmd.v (Cmdliner.Cmd.info "t") Cli.run_term in
  match Cmdliner.Cmd.eval_value ~argv:(Array.of_list ("t" :: args)) cmd with
  | Ok (`Ok opts) -> opts
  | _ -> Alcotest.fail ("unparsed: " ^ String.concat " " args)

(* [exec_config] sets the process-wide worker count and may enable the
   metrics registry; both are put back for the suites that follow. *)
let config args =
  let workers = Executor.workers () and metrics = Metrics.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Executor.set_workers workers;
      Metrics.set_enabled metrics)
    (fun () -> Cli.exec_config (parse args))

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_defaults () =
  let c = config [] and d = Executor.config () in
  check Alcotest.bool "progress" d.progress c.Executor.progress;
  check Alcotest.int "heartbeat_every" d.heartbeat_every c.heartbeat_every;
  check Alcotest.(option string) "attrib_dir" d.attrib_dir c.attrib_dir;
  List.iter
    (fun (field, set_c, set_d) -> check Alcotest.bool field set_d set_c)
    [
      ("status", c.status <> None, d.status <> None);
      ("flight", c.flight <> None, d.flight <> None);
      ("export", c.export <> None, d.export <> None);
      ("rcache", c.rcache <> None, d.rcache <> None);
      ("distribute", c.distribute <> None, d.distribute <> None);
    ]

(* Each consumer of heartbeats arms them on its own. *)
let test_heartbeats () =
  let c = config [ "--status-file"; tmp "t_cli_status.json" ] in
  check Alcotest.int "--status-file arms heartbeats"
    Sweep_obs.Heartbeat.default_every c.Executor.heartbeat_every;
  check Alcotest.bool "status" true (c.status <> None);
  let c = config [ "--metrics-export"; tmp "t_cli_metrics.prom" ] in
  check Alcotest.int "--metrics-export arms heartbeats"
    Sweep_obs.Heartbeat.default_every c.Executor.heartbeat_every;
  check Alcotest.bool "export" true (c.export <> None)

let test_distribute () =
  match (config [ "--workers"; "2"; "--retries"; "1" ]).Executor.distribute with
  | None -> Alcotest.fail "--workers 2 built no distribute policy"
  | Some p ->
    check Alcotest.int "workers" 2 p.Sweep_exp.Supervisor.workers;
    check Alcotest.int "retries" 1 p.retries;
    check (Alcotest.float 0.0) "worker timeout" 60.0 p.worker_timeout_s;
    check Alcotest.int "respawn budget" 8 p.respawn_budget;
    check Alcotest.int "seed" 42 p.seed

let test_usage_errors () =
  check Alcotest.bool "defaults accepted" true (Cli.check ~prog:"t" (parse []));
  List.iter
    (fun args ->
      check Alcotest.bool (String.concat " " args ^ " rejected") false
        (Cli.check ~prog:"t" (parse args)))
    [ [ "-j"; "0" ]; [ "--workers=-1" ] ]

let suite =
  [
    Alcotest.test_case "defaults match Executor.config ()" `Quick
      test_defaults;
    Alcotest.test_case "status/export arm heartbeats" `Quick test_heartbeats;
    Alcotest.test_case "--workers builds a policy" `Quick test_distribute;
    Alcotest.test_case "out-of-range flags rejected" `Quick test_usage_errors;
  ]
