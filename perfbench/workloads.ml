(* The benchmark's four workloads.

   Each one is set up, run through the public entry point a user calls
   (Runner.run, Experiments.run, Search.run), summarised from the files
   and store it leaves behind, and replayed job by job through each
   layer's public function with a span around every call.  Why each
   workload is here is recorded in README.md. *)

module Jobs = Sweep_exp.Jobs
module Exp_common = Sweep_exp.Exp_common
module Experiments = Sweep_exp.Experiments
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module Supervisor = Sweep_exp.Supervisor
module Spec = Sweep_fleet.Spec
module Device = Sweep_fleet.Device
module Sketch = Sweep_fleet.Sketch
module Runner = Sweep_fleet.Runner
module Search = Sweep_tune.Search
module Space = Sweep_tune.Space
module Journal = Sweep_tune.Journal
module Frontier = Sweep_tune.Frontier
module Trace = Sweep_energy.Power_trace
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Json = Sweep_analyze.Json

type kind = Fleet | Paper_unlimited | Paper_harvested | Tune_supervised

let all =
  [
    ("fleet", Fleet);
    ("paper-unlimited", Paper_unlimited);
    ("paper-harvested", Paper_harvested);
    ("tune-supervised", Tune_supervised);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) all)
let of_name s = List.assoc_opt s all

(* [Smoke] shrinks every workload to a handful of jobs so the whole
   benchmark can be exercised in seconds; its numbers are never
   reported as measurements. *)
type size = Full | Smoke

let md5 s = Digest.to_hex (Digest.string s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ok_or_fail = function Ok x -> x | Error e -> failwith e

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* Inputs.                                                              *)

(* CI's fixed fleet spec (sha@0.3, SweepCache, jittered RFOffice, 100
   and 220 nF cohorts) with the device count cut to what one rep can
   run in a few seconds; the seed is the benchmark's. *)
let fleet_spec size ~seed =
  let devices = match size with Full -> 64 | Smoke -> 8 in
  Printf.sprintf
    {|{"schema_version": 1, "name": "perf-fleet", "devices": %d, "seed": %d,
       "bench": "sha", "scale": 0.3, "design": "sweep", "trace": "rfoffice",
       "jitter": {"max_shift_steps": 600000, "amp_spread_permille": 200,
                  "max_drop_bp": 300},
       "cohorts": [
         {"name": "base", "weight": 3, "farads": 100e-9, "cache_bytes": 4096,
          "assoc": 2, "buffer_entries": 64},
         {"name": "bigcap", "weight": 1, "farads": 220e-9, "cache_bytes": 4096,
          "assoc": 2, "buffer_entries": 64}]}|}
    devices seed
  |> Json.parse |> ok_or_fail |> Spec.of_json |> ok_or_fail

(* The Fig 5 / Fig 6 matrices (NVP plus the four Fig 5 settings, scale
   1.0) over the repo's pinned 10-benchmark subset, rendered by the
   figure's own table printer.  The seed permutes the job order, which
   changes no result. *)
let paper_experiment kind size ~seed =
  let exp, title, power =
    match kind with
    | Paper_unlimited ->
      ("fig5", "Fig. 5 — speedups over NVP, no power failure", Driver.Unlimited)
    | _ ->
      ( "fig6",
        "Fig. 6 — speedups over NVP, RFHome trace (470 nF)",
        Exp_common.power (Exp_common.trace_of Trace.Rf_home) )
  in
  let benches =
    match size with Full -> Exp_common.subset_names | Smoke -> [ "sha" ]
  in
  let e = Option.get (Experiments.find exp) in
  let jobs =
    Array.of_list
      (List.filter (fun j -> List.mem j.Jobs.bench benches) (e.Experiments.jobs ()))
  in
  Sweep_util.Rng.shuffle (Sweep_util.Rng.create seed) jobs;
  {
    e with
    Experiments.jobs = (fun () -> Array.to_list jobs);
    render =
      (fun () ->
        Sweep_exp.Exp_fig5.print_speedup_table ~title ~power ~names:benches
          Exp_common.fig5_settings);
  }

(* The repo's pinned tune matrix cut to the paper's 470 nF capacitor and
   unroll factor 4: 30 points, so a rep takes seconds.  The 1 µF half
   of the matrix holds five fft cells whose region formation does not
   converge; leaving it out keeps every operation successful.  Halving
   with budget 400 evaluates every cell the ladder reaches (84). *)
let tune_params size ~seed =
  {
    Search.default_params with
    space = { Space.default with farads = [ 470e-9 ]; max_unroll = [ 4 ] };
    budget = (match size with Full -> 400 | Smoke -> 8);
    seed;
  }

type prepared =
  | Fleet_w of Spec.t
  | Paper_w of Experiments.t
  | Tune_w of Search.params

(* Set-up: everything before the first job is handed over.  The
   in-process workloads materialise their shared base trace here; the
   supervised tune search leaves that to its workers. *)
let prepare kind size ~seed =
  Executor.set_workers 1;
  match kind with
  | Fleet ->
    let spec = fleet_spec size ~seed in
    Jobs.prewarm (Device.power spec (Device.instantiate spec ~id:0));
    Fleet_w spec
  | Paper_unlimited | Paper_harvested ->
    Paper_w (paper_experiment kind size ~seed)
  | Tune_supervised -> Tune_w (tune_params size ~seed)

(* Jobs a rep is expected to attempt: charged as failed when a rep dies
   before reporting. *)
let planned_jobs = function
  | Fleet_w spec -> spec.Spec.devices
  | Paper_w e -> List.length (e.Experiments.jobs ())
  | Tune_w params -> snd (Search.plan params)

(* ------------------------------------------------------------------ *)
(* The timed phase: one public entry point per workload.               *)

let table_path dir = Filename.concat dir "table.txt"
let journal_path dir = Filename.concat dir "journal.jsonl"
let frontier_path dir = Filename.concat dir "frontier.jsonl"

(* Experiments render to stdout, which belongs to the benchmark's own
   report; point it at a file for the duration of [f]. *)
let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let run_timed prepared ~dir =
  match prepared with
  | Fleet_w spec -> ignore (ok_or_fail (Runner.run ~workers:1 ~dir spec))
  | Paper_w e -> with_stdout_to (table_path dir) (fun () -> Experiments.run e)
  | Tune_w params ->
    (* One worker process: the supervisor idles while it simulates, so
       the workload needs one CPU, like the others (see README.md). *)
    let exec_config =
      Executor.config
        ~distribute:(Supervisor.policy ~seed:params.Search.seed ~workers:1 ())
        ()
    in
    let o, _ =
      ok_or_fail
        (Search.run ~workers:1 ~exec_config ~journal:(journal_path dir) params)
    in
    Frontier.write_jsonl (frontier_path dir) o.Search.frontier;
    Supervisor.shutdown ()

(* ------------------------------------------------------------------ *)
(* What a rep produced.                                                *)

type output = {
  jobs : int;          (** jobs (fleet: devices) attempted *)
  failed : int;
  instructions : int;  (** simulated; -1 when the outputs do not say *)
  digest : string;     (** MD5 of the files a user reads *)
  check : string;      (** MD5 of what the replay recomputes *)
}

(* Every field of a job's outcome, exact: two lines are equal iff the
   simulations agree. *)
let outcome_line key (o : Driver.outcome) ~nvm_writes ~miss_rate =
  Printf.sprintf
    "%s %b %.17g %.17g %d %d %d %d %.17g %.17g %.17g %.17g %d %d %d %.17g\n"
    key o.completed o.on_ns o.off_ns o.outages o.deaths o.backups
    o.failed_backups o.compute_joules o.backup_joules o.restore_joules
    o.quiescent_joules o.instructions o.injected_faults nvm_writes miss_rate

let cell_line ~key ~runtime_ns ~nvm_writes ~completed ~failed =
  Printf.sprintf "%s %.17g %d %b %b\n" key runtime_ns nvm_writes completed
    failed

let sorted_digest lines = md5 (String.concat "" (List.sort compare lines))

let fleet_state dir =
  match Json.parse (read_file (Runner.report_path dir)) with
  | Error e -> Error e
  | Ok j -> (
    match Json.member "state" j with
    | Some s -> Sketch.of_json s
    | None -> Error "fleet.json has no state")

let journal_cells dir = fst (ok_or_fail (Journal.load (journal_path dir)))

let store_instructions () =
  List.fold_left
    (fun acc (_, s) -> acc + s.Results.outcome.Driver.instructions)
    0 (Results.snapshot ())

let outputs prepared ~dir =
  match prepared with
  | Fleet_w _ ->
    let state = ok_or_fail (fleet_state dir) in
    {
      jobs = Sketch.devices state;
      failed = state.Sketch.failed_total;
      instructions = -1;
      digest = md5 (read_file (Runner.report_path dir));
      check = md5 (Sketch.render state);
    }
  | Paper_w _ ->
    let snap = Results.snapshot () in
    let failed = List.length (Results.failures ()) in
    {
      jobs = List.length snap + failed;
      failed;
      instructions = store_instructions ();
      digest = md5 (read_file (table_path dir));
      check =
        sorted_digest
          (List.map
             (fun (key, s) ->
               outcome_line key s.Results.outcome ~nvm_writes:s.Results.nvm_writes
                 ~miss_rate:s.Results.miss_rate)
             snap);
    }
  | Tune_w _ ->
    let cells = journal_cells dir in
    let bad = List.length (List.filter (fun c -> c.Journal.failed) cells) in
    {
      jobs = List.length cells;
      failed = bad + (Supervisor.stats ()).Supervisor.quarantined;
      instructions = store_instructions ();
      digest =
        md5 (read_file (journal_path dir) ^ read_file (frontier_path dir));
      check =
        md5
          (String.concat ""
             (List.map
                (fun c ->
                  cell_line ~key:c.Journal.key ~runtime_ns:c.Journal.runtime_ns
                    ~nvm_writes:c.Journal.nvm_writes
                    ~completed:c.Journal.completed ~failed:c.Journal.failed)
                cells));
    }

(* ------------------------------------------------------------------ *)
(* The replay: each job through each layer's public function.          *)

type replayed = {
  r_jobs : int;
  r_failed : int;
  r_instructions : int;
  r_outages : int;
  r_check : string;
}

(* Exp_common.compute's steps, one span each.  Only the outcome and
   two counters leave this function: a machine holds a 32 MiB NVM
   image, and a replay must not keep one per job. *)
let simulate tr (j : Jobs.t) =
  let s = j.Jobs.setting in
  let span name f = Spans.span tr name f in
  match
    let power = span "energy.to_power" (fun () -> Jobs.to_power j.Jobs.power) in
    let ast =
      span "workloads.program" (fun () ->
          Sweep_workloads.Workload.program ~scale:j.Jobs.scale
            (Sweep_workloads.Registry.find j.Jobs.bench))
    in
    let compiled =
      span "compiler.compile" (fun () ->
          H.compile ~options:s.Exp_common.options s.Exp_common.design ast)
    in
    let machine =
      span "machine.build" (fun () ->
          H.machine ~config:s.Exp_common.config s.Exp_common.design
            compiled.Sweep_compiler.Pipeline.program)
    in
    let outcome = span "sim.run" (fun () -> Driver.run machine ~power) in
    let r =
      { H.design = s.Exp_common.design; outcome; machine; compiled; attrib = None }
    in
    (outcome, H.nvm_writes r, H.cache_miss_rate r)
  with
  | v -> Ok v
  | exception e -> Error (Printexc.to_string e)

type tally = {
  mutable failed : int;
  mutable instructions : int;
  mutable outages : int;
}

let count t = function
  | Ok ((o : Driver.outcome), _, _) ->
    t.instructions <- t.instructions + o.instructions;
    t.outages <- t.outages + o.outages
  | Error _ -> t.failed <- t.failed + 1

let replay_fleet tr spec t =
  let state = Sketch.create () in
  (* The executor simulates each distinct job key once; so does this. *)
  let seen = Hashtbl.create 64 in
  for id = 0 to spec.Spec.devices - 1 do
    Spans.job tr ~idx:id (fun () ->
        let dev =
          Spans.span tr "fleet.instantiate" (fun () -> Device.instantiate spec ~id)
        in
        let job = Spans.span tr "fleet.job" (fun () -> Device.job spec dev) in
        let key = Jobs.key job in
        let res =
          match Hashtbl.find_opt seen key with
          | Some r -> r
          | None ->
            let r = simulate tr job in
            count t r;
            Hashtbl.add seen key r;
            r
        in
        Spans.span tr "fleet.fold" (fun () ->
            let arm = dev.Device.arm.Spec.arm_name in
            match res with
            | Ok (o, _, _) ->
              Sketch.fold_device state ~id ~arm
                ~replay:(Device.replay_args spec dev) o
            | Error _ -> Sketch.fold_failure state ~id ~arm))
  done;
  (spec.Spec.devices, md5 (Sketch.render state))

let replay_paper tr (e : Experiments.t) t =
  let jobs = Jobs.dedup (e.Experiments.jobs ()) in
  let lines =
    List.mapi
      (fun idx j ->
        Spans.job tr ~idx (fun () ->
            let r = simulate tr j in
            count t r;
            match r with
            | Ok (o, nvm_writes, miss_rate) ->
              Some (outcome_line (Jobs.key j) o ~nvm_writes ~miss_rate)
            | Error _ -> None))
      jobs
  in
  (List.length jobs, sorted_digest (List.filter_map Fun.id lines))

(* The cells of the rep's journal, in journal order. *)
let replay_tune tr ~dir t =
  let cells = journal_cells dir in
  let lines =
    List.mapi
      (fun idx c ->
        Spans.job tr ~idx (fun () ->
            let j =
              Space.job ~scale:c.Journal.scale c.Journal.point c.Journal.bench
            in
            let key = Jobs.key j in
            let r = simulate tr j in
            count t r;
            match r with
            | Ok (o, nvm_writes, _) ->
              cell_line ~key ~runtime_ns:(Driver.total_ns o) ~nvm_writes
                ~completed:o.Driver.completed ~failed:false
            | Error _ ->
              cell_line ~key ~runtime_ns:0.0 ~nvm_writes:0 ~completed:false
                ~failed:true))
      cells
  in
  (List.length cells, md5 (String.concat "" lines))

(* [dir] holds a finished rep's outputs (the tune replay reads its
   journal). *)
let replay tr prepared ~dir =
  let t = { failed = 0; instructions = 0; outages = 0 } in
  let jobs, check =
    match prepared with
    | Fleet_w spec -> replay_fleet tr spec t
    | Paper_w e -> replay_paper tr e t
    | Tune_w _ -> replay_tune tr ~dir t
  in
  {
    r_jobs = jobs;
    r_failed = t.failed;
    r_instructions = t.instructions;
    r_outages = t.outages;
    r_check = check;
  }
