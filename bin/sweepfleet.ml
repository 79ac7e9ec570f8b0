(* sweepfleet: populations of jittered devices with streaming
   distribution aggregation.

     dune exec bin/sweepfleet.exe -- plan fleet.json
     dune exec bin/sweepfleet.exe -- plan fleet.json --device 17
     dune exec bin/sweepfleet.exe -- run fleet.json --out-dir fleet -j 4
     dune exec bin/sweepfleet.exe -- report fleet/fleet.json

   `run` simulates every device of the spec (each one the base job
   under a seeded private power perturbation and a weighted hardware
   cohort), folds the outcomes into fixed-bin distribution sketches in
   canonical device order, and writes <out-dir>/fleet.json.  The
   journal (<out-dir>/fleet.journal) advances in whole chunks, so a
   killed run resumes and converges to byte-identical output; output is
   also byte-identical at any -j and any --workers.

   Exit codes follow the experiment-stack contract: 0 clean, 1 job
   failures (supervisor quarantine), 2 degraded completion, 3
   interrupted (resumable), 64 usage.  A device whose simulation fails
   deterministically is a fleet statistic (counted and listed in the
   report), not a process failure. *)

open Cmdliner
module Fleet = Sweep_fleet
module A = Sweep_analyze
module Exit_code = Sweep_exp.Exit_code

let prog = "sweepfleet"
let err fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s: %s\n" prog s) fmt

(* ---------------- plan ---------------- *)

let plan spec_path device =
  match Fleet.Spec.load spec_path with
  | Error e ->
    err "%s" e;
    Exit_code.usage
  | Ok spec -> (
    match device with
    | Some id ->
      if id < 0 || id >= spec.Fleet.Spec.devices then begin
        err "--device %d outside [0, %d)" id spec.Fleet.Spec.devices;
        Exit_code.usage
      end
      else begin
        let d = Fleet.Device.instantiate spec ~id in
        Printf.printf "device %d of fleet %s:\n" id spec.Fleet.Spec.name;
        Printf.printf "  cohort         %s\n"
          d.Fleet.Device.arm.Fleet.Spec.arm_name;
        Printf.printf "  shift_steps    %d\n" d.Fleet.Device.shift_steps;
        Printf.printf "  amp_permille   %d\n" d.Fleet.Device.amp_permille;
        Printf.printf "  drop_bp        %d\n" d.Fleet.Device.drop_bp;
        Printf.printf "  drop_seed      %d\n" d.Fleet.Device.drop_seed;
        Printf.printf "  job key        %s\n" (Fleet.Device.key spec d);
        Printf.printf "  replay         sweepsim %s\n"
          (Fleet.Device.replay_args spec d);
        0
      end
    | None ->
      let per_arm, unique = Fleet.Runner.census spec in
      Printf.printf
        "fleet %s: %d device(s), seed %d, bench %s (scale %g), design %s, \
         trace %s\n"
        spec.Fleet.Spec.name spec.Fleet.Spec.devices spec.Fleet.Spec.seed
        spec.Fleet.Spec.bench spec.Fleet.Spec.scale
        (Fleet.Spec.design_name spec.Fleet.Spec.design)
        (Sweep_energy.Power_trace.kind_name spec.Fleet.Spec.trace);
      List.iter
        (fun (name, n) -> Printf.printf "  cohort %-16s %d device(s)\n" name n)
        per_arm;
      Printf.printf "%d distinct job(s) to simulate\n" unique;
      0)

(* ---------------- run ---------------- *)

let run spec_path out_dir kill_after chunk (opts : Cli.run) =
  if not (Cli.check ~prog opts) then Exit_code.usage
  else if chunk < 1 then begin
    err "--chunk must be at least 1 (got %d)" chunk;
    Exit_code.usage
  end
  else
    match Fleet.Spec.load spec_path with
    | Error e ->
      err "%s" e;
      Exit_code.usage
    | Ok spec ->
      (* Live telemetry threaded into every chunk's Executor.execute;
         none of it touches the journal or the fleet.json bytes.  The
         status file runs in cohort-rollup mode so its size is
         O(cohorts), not O(devices). *)
      (try
         let exec_config =
           Cli.exec_config ~rollup:Fleet.Device.cohort_of_key opts
         in
         match
           Fleet.Runner.run ~workers:opts.Cli.jobs ~exec_config ?kill_after
             ~chunk ~dir:out_dir spec
         with
         | exception Fleet.Runner.Interrupted { folded } ->
           err "interrupted after device %d; journal %s is resumable" folded
             (Fleet.Runner.journal_path out_dir);
           Cli.wind_down opts exec_config;
           Exit_code.interrupted
         | Error e ->
           err "%s" e;
           1
         | Ok o ->
           let st = o.Fleet.Runner.state in
           let aggregated = Fleet.Sketch.devices st in
           if o.Fleet.Runner.resumed_from > 0 then
             Printf.eprintf "resumed from journalled device %d\n"
               o.Fleet.Runner.resumed_from;
           Printf.printf
             "sweepfleet: %s — %d device(s) aggregated (%d failed), report \
              written to %s\n"
             spec.Fleet.Spec.name aggregated st.Fleet.Sketch.failed_total
             o.Fleet.Runner.report_path;
           Cli.finish ~prog opts exec_config
       with Sys_error msg ->
         err "%s" msg;
         Sweep_exp.Supervisor.shutdown ();
         1)

(* ---------------- report ---------------- *)

let report fleet_path format out =
  match A.Fleet_view.load fleet_path with
  | Error e ->
    err "%s" e;
    Exit_code.usage
  | Ok t ->
    Cli.write_output out
      (A.Report.render format (A.Fleet_view.report ~source:fleet_path t));
    0

(* ---------------- command line ---------------- *)

let spec_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"SPEC" ~doc:"Fleet specification JSON file.")

let device_arg =
  Arg.(value & opt (some int) None
       & info [ "device" ] ~docv:"ID"
           ~doc:"Print one device's derived parameters and exact sweepsim \
                 replay command line instead of the census.")

let out_dir_arg =
  Arg.(value & opt string "fleet"
       & info [ "out-dir" ] ~docv:"DIR"
           ~doc:"Directory for fleet.journal (the resumable checkpoint) \
                 and fleet.json (the aggregated report).")

let kill_after_arg =
  Arg.(value & opt (some int) None
       & info [ "kill-after" ] ~docv:"N"
           ~doc:"Abort (exit 3) at the first chunk boundary after N \
                 devices have been folded this run — the CI \
                 resume-equivalence crash injector.")

let chunk_arg =
  Arg.(value & opt int Sweep_fleet.Runner.default_chunk
       & info [ "chunk" ] ~docv:"N"
           ~doc:"Devices per executor batch / journal checkpoint \
                 (default 256); does not affect output.")

let fleet_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FLEET" ~doc:"fleet.json written by a run.")

let plan_cmd =
  let doc = "print the population census without running anything" in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const plan $ spec_pos $ device_arg)

let run_cmd =
  let doc = "simulate the fleet and write the aggregated report" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ spec_pos $ out_dir_arg $ kill_after_arg $ chunk_arg
          $ Cli.run_term)

let report_cmd =
  let doc = "render a fleet.json as distribution tables" in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const report $ fleet_pos $ Cli.format_arg $ Cli.output_arg)

let cmd =
  let doc = "fleet-scale simulation of jittered device populations" in
  Cmd.group (Cmd.info "sweepfleet" ~doc) [ plan_cmd; run_cmd; report_cmd ]

let () = Cli.eval cmd
