(* sweeptune: resumable design-space exploration over SweepCache's
   hardware and compiler knobs.

     dune exec bin/sweeptune.exe -- explore --budget 200 --seed 42 -j 4
     dune exec bin/sweeptune.exe -- explore --strategy random --budget 60
     dune exec bin/sweeptune.exe -- plan --strategy halving --budget 200
     dune exec bin/sweeptune.exe -- report tune/frontier.jsonl --journal tune/journal.jsonl

   `explore` searches the pinned design matrix (cache geometry,
   persist-buffer entries, region store cap, unroll factor, capacitor,
   power trace) under a budget of (point, bench) simulation cells,
   journalling every evaluated cell to <out-dir>/journal.jsonl and
   writing the Pareto frontier (geomean runtime x NVM writes x hardware
   bits) to <out-dir>/frontier.jsonl.  Interrupt it at any time: rerun
   with the same out-dir and it resumes from the journal, re-evaluating
   nothing and converging to the identical frontier.  Output is
   byte-identical at any -j. *)

open Cmdliner
module Tune = Sweep_tune
module A = Sweep_analyze
module Exit_code = Sweep_exp.Exit_code

let prog = "sweeptune"
let err fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s: %s\n" prog s) fmt

let strategy_conv =
  Arg.conv
    ( (fun s ->
        match Tune.Search.strategy_of_name (String.lowercase_ascii s) with
        | Some st -> Ok st
        | None -> Error (`Msg ("unknown strategy " ^ s ^ " (grid|random|halving)"))),
      fun fmt st ->
        Format.pp_print_string fmt (Tune.Search.strategy_name st) )

(* Shared search parameter flags. *)
let budget_arg =
  Arg.(value & opt int Tune.Search.default_params.Tune.Search.budget
       & info [ "budget" ] ~docv:"N"
           ~doc:"Maximum (point, bench) simulation cells to schedule; \
                 journal-cached cells count too, so a resumed search \
                 stops exactly where an uninterrupted one would.")

let seed_arg =
  Arg.(value & opt int Tune.Search.default_params.Tune.Search.seed
       & info [ "seed" ] ~docv:"N"
           ~doc:"Search seed (drives $(b,random)'s shuffle).")

let strategy_arg =
  Arg.(value & opt strategy_conv Tune.Search.default_params.Tune.Search.strategy
       & info [ "strategy" ] ~docv:"S"
           ~doc:"$(b,grid) (canonical exhaustive walk), $(b,random) \
                 (seeded sample) or $(b,halving) (successive halving up \
                 the bench ladder; the default).")

let scale_arg =
  Arg.(value & opt float Tune.Search.default_params.Tune.Search.scale
       & info [ "scale" ] ~docv:"F"
           ~doc:"Workload scale for every cell (default 0.2).")

let params_of budget seed strategy scale =
  { Tune.Search.default_params with budget; seed; strategy; scale }

let check_params budget scale =
  if budget < 0 then begin
    err "--budget must be non-negative (got %d)" budget;
    false
  end
  else if scale <= 0.0 || scale > 1.0 then begin
    err "--scale must be in (0, 1] (got %g)" scale;
    false
  end
  else true

(* ---------------- explore ---------------- *)

let render_failed = function
  | [] -> ()
  | failed ->
      Printf.eprintf "%d point(s) excluded from the frontier:\n"
        (List.length failed);
      List.iter
        (fun (p, e) -> Printf.eprintf "  %s: %s\n" (Tune.Space.id p) e)
        failed

let explore budget seed strategy scale out_dir kill_after format early_stop
    (opts : Cli.run) =
  if not (check_params budget scale && Cli.check ~prog opts) then
    Exit_code.usage
  else if (match early_stop with Some m -> m < 1.0 | None -> false) then begin
    err "--early-stop margin must be >= 1 (got %g)"
      (Option.get early_stop);
    Exit_code.usage
  end
  else begin
    let params =
      { (params_of budget seed strategy scale) with early_stop }
    in
    let journal = Filename.concat out_dir "journal.jsonl" in
    let frontier_path = Filename.concat out_dir "frontier.jsonl" in
    (* Live telemetry threaded into every chunk's Executor.execute; none
       of it touches the journal or the frontier bytes. *)
    try
      let exec_config = Cli.exec_config opts in
      Sweep_util.Durable.mkdir_p out_dir;
      match
        Tune.Search.run ~workers:opts.Cli.jobs ?kill_after ~exec_config
          ~journal params
      with
      | exception Tune.Search.Interrupted { executed } ->
          err "interrupted after %d simulated cell(s); journal %s is \
               resumable" executed journal;
          Cli.wind_down opts exec_config;
          Exit_code.interrupted
      | Error e ->
          err "%s" e;
          1
      | Ok (o, warnings) ->
          List.iter (fun w -> Printf.eprintf "warning: %s\n" w) warnings;
          Tune.Frontier.write_jsonl frontier_path o.Tune.Search.frontier;
          Printf.printf
            "sweeptune: %s search, budget %d — %d cell(s) scheduled \
             (%d simulated, %d from journal)\n"
            (Tune.Search.strategy_name strategy)
            budget o.Tune.Search.scheduled o.Tune.Search.executed
            o.Tune.Search.cached;
          Printf.printf
            "final tier: %d point(s) on benches [%s]; frontier written to %s\n\n"
            o.Tune.Search.tier_points
            (String.concat ", " o.Tune.Search.tier_benches)
            frontier_path;
          (* Search.run has already reported the journal's warnings. *)
          (match A.Tune_file.load ~journal frontier_path with
          | Error e ->
              err "%s" e;
              1
          | Ok (report, _) ->
              print_string (A.Report.render format report);
              render_failed o.Tune.Search.failed_points;
              (* Deterministically failing cells are a search outcome
                 (excluded from the frontier, exit 0, as always); only
                 jobs the supervisor quarantined after exhausting
                 worker-death retries count as job failures. *)
              Cli.finish ~prog opts exec_config)
    with Sys_error msg ->
      err "%s" msg;
      Sweep_exp.Supervisor.shutdown ();
      1
  end

(* ---------------- plan ---------------- *)

let plan budget seed strategy scale =
  if not (check_params budget scale) then Exit_code.usage
  else begin
    let params = params_of budget seed strategy scale in
    let cands, worst = Tune.Search.plan params in
    List.iter (fun p -> print_endline (Tune.Space.id p)) cands;
    Printf.printf
      "%d candidate point(s) (%s), worst case %d cell(s) within budget %d\n"
      (List.length cands)
      (Tune.Search.strategy_name strategy)
      worst budget;
    0
  end

(* ---------------- report ---------------- *)

let report frontier_path journal_path format out =
  match A.Tune_file.load ?journal:journal_path frontier_path with
  | Error e ->
      err "%s" e;
      Exit_code.usage
  | Ok (report, warnings) ->
      List.iter (fun w -> Printf.eprintf "warning: %s\n" w) warnings;
      Cli.write_output out (A.Report.render format report);
      0

(* ---------------- command line ---------------- *)

let out_dir_arg =
  Arg.(value & opt string "tune"
       & info [ "out-dir" ] ~docv:"DIR"
           ~doc:"Directory for journal.jsonl (the resumable checkpoint) \
                 and frontier.jsonl.")

let kill_after_arg =
  Arg.(value & opt (some int) None
       & info [ "kill-after" ] ~docv:"N"
           ~doc:"Abort (exit 3) at the first batch boundary after N \
                 cells have been simulated this run — the CI \
                 resume-equivalence crash injector.")

let early_stop_arg =
  Arg.(value & opt (some float) None
       & info [ "early-stop" ] ~docv:"MARGIN"
           ~doc:"Kill dominated cells: gracefully stop any cell once its \
                 simulated time exceeds MARGIN times the best completed \
                 runtime journalled for the same bench (MARGIN >= 1, e.g. \
                 $(b,1.5)).  Budgets are frozen per execution chunk from \
                 journalled state only, so the journal and frontier stay \
                 byte-identical across -j and kill/resume.")

let explore_cmd =
  let doc = "search the design space and write the Pareto frontier" in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(const explore $ budget_arg $ seed_arg $ strategy_arg $ scale_arg
          $ out_dir_arg $ kill_after_arg $ Cli.format_arg $ early_stop_arg
          $ Cli.run_term)

let plan_cmd =
  let doc = "print the candidate points without running anything" in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(const plan $ budget_arg $ seed_arg $ strategy_arg $ scale_arg)

let frontier_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FRONTIER" ~doc:"frontier.jsonl from an explore run.")

let journal_opt =
  Arg.(value & opt (some file) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"journal.jsonl to add per-axis sensitivity sections.")

let report_cmd =
  let doc = "render a frontier (and journal sensitivity) as a report" in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const report $ frontier_pos $ journal_opt $ Cli.format_arg
          $ Cli.output_arg)

let cmd =
  let doc = "design-space exploration over SweepCache's knobs" in
  Cmd.group (Cmd.info "sweeptune" ~doc) [ explore_cmd; plan_cmd; report_cmd ]

let () = Cli.eval cmd
