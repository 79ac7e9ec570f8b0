(* perfbench: the repo benchmark.

   Build and run it from the repository root with

     bash perfbench/run.sh --workload fleet --seed 42 --seconds 20 --trace 0

   [--trace 0] measures the end-to-end metrics: it runs the workload's
   public entry point in a fresh child process per rep, back to back
   for [--seconds], and reports the median of the reps.  [--trace 1]
   measures the per-layer metrics: it replays one rep's exact job list
   through each layer's public function, wrapping every call in a span,
   then runs the isolated layer probes.  Either way the last line of
   stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

   [perf.exe smoke] exercises all of it at toy sizes and checks the
   metric catalogue against BENCHMARK.json.  README.md has the
   workload and metric tables. *)

module W = Workloads
module Json = Sweep_analyze.Json

let now = Spans.now

(* ------------------------------------------------------------------ *)
(* Metric catalogue (names, units) — mirrored by BENCHMARK.json.        *)

type rep = {
  wall_s : float;   (** the timed phase *)
  setup_s : float;  (** spawn until the first job is handed over *)
  jobs : int;
  failed : int;
  instructions : int;
  rss_mb : float;   (** VmHWM of the rep process *)
  digest : string;
  check : string;
}

let e2e_metrics =
  [
    ("wall_s", "s");
    ("jobs_per_s", "jobs/s");
    ("sim_minstr_per_s", "Minstr/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Each end-to-end metric is the median of these samples: one per rep,
   and for set-up also one per set-up-only child. *)
let e2e_samples (reps : rep list) ~setups = function
  | "wall_s" -> List.map (fun r -> r.wall_s) reps
  | "jobs_per_s" -> List.map (fun r -> float_of_int r.jobs /. r.wall_s) reps
  | "sim_minstr_per_s" ->
    List.map (fun r -> float_of_int r.instructions /. r.wall_s /. 1e6) reps
  | "setup_s" -> setups
  | "peak_rss_mb" -> List.map (fun r -> r.rss_mb) reps
  | m -> invalid_arg m

let layer_metrics =
  [
    ("compiler.compile_ms_p50", "ms");
    ("compiler.share", "ratio");
    ("machine.build_ms_p50", "ms");
    ("machine.share", "ratio");
    ("energy.power_ms_p50", "ms");
    ("energy.share", "ratio");
    ("workloads.program_ms_p50", "ms");
    ("workloads.share", "ratio");
    ("sim.run_ms_p50", "ms");
    ("sim.share", "ratio");
    ("sim.step_minstr_per_s", "Minstr/s");
    ("sim.instructions", "count");
    ("sim.outages", "count");
    ("exp.job_ms_p50", "ms");
    ("exp.job_ms_tail", "ms");
    ("exp.share", "ratio");
    ("exp.unattributed_share", "ratio");
    ("gc.minor_mwords_per_job", "Mwords");
    ("gc.major_collections", "count");
    ("fleet.share", "ratio");
    ("mem.nvm_create_ms", "ms");
    ("isa.decode_ms", "ms");
    ("energy.trace_make_ms", "ms");
    ("energy.jitter_ms", "ms");
    ("fleet.instantiate_us", "us");
    ("fleet.fold_us", "us");
    ("fleet.render_ms", "ms");
    ("sim.step_minstr_per_s_unlimited", "Minstr/s");
    ("sim.step_minstr_per_s_harvested", "Minstr/s");
    ("obs.heartbeat_overhead_pct", "%");
    ("obs.attrib_overhead_pct", "%");
    ("obs.sink_overhead_pct", "%");
    ("exp.wire_roundtrip_us", "us");
    ("exp.supervisor_job_overhead_ms", "ms");
    ("exp.domain_speedup_j2", "x");
    ("exp.rcache_store_ms", "ms");
    ("exp.rcache_hit_us", "us");
    ("exp.rcache_miss_us", "us");
    ("tune.resume_s", "s");
  ]

(* MD5 of each workload's user-visible outputs at full size: fleet.json,
   the rendered figure table, journal.jsonl followed by frontier.jsonl.
   Only the fleet's outputs depend on the seed; it is pinned at the
   default seed, and any other seed is checked against the replay. *)
let default_seed = 42

let pinned =
  [
    (W.Fleet, Some default_seed, "35a6343427cf22b48b9afc7d60bb323e");
    (W.Paper_unlimited, None, "6279f775506766ac65987c561b035505");
    (W.Paper_harvested, None, "f3ef89054ac85fac7e98073bae689459");
    (W.Tune_supervised, None, "15e60b3967c49ec8091cf0268a3030df");
  ]

let pinned_digest kind seed =
  List.find_map
    (fun (k, s, d) ->
      if k = kind && (s = None || s = Some seed) then Some d else None)
    pinned

(* ------------------------------------------------------------------ *)
(* One rep, in a child process.                                         *)

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Set up, run the timed phase, summarise: one JSON line on stdout.
   [setup_done] is a reading of the shared monotonic clock, so the
   parent can measure set-up from the moment it spawned this process.
   [setup_only] stops there: set-up is short, so the parent samples it
   more often than it runs whole reps. *)
let rep_main kind size ~seed ~dir ~setup_only =
  let prepared = W.prepare kind size ~seed in
  let setup_done = now () in
  if setup_only then Printf.printf "{\"setup_done\":%.9f}\n" setup_done
  else begin
    let t0 = now () in
    W.run_timed prepared ~dir;
    let wall_s = now () -. t0 in
    let o = W.outputs prepared ~dir in
    Printf.printf
      "{\"setup_done\":%.9f,\"wall_s\":%.9f,\"jobs\":%d,\"failed\":%d,\
       \"instructions\":%d,\"vmhwm_kb\":%d,\"digest\":%S,\"check\":%S}\n"
      setup_done wall_s o.W.jobs o.W.failed o.W.instructions (vmhwm_kb ())
      o.W.digest o.W.check
  end;
  0

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Run this binary again with [args]: the time it was spawned and its
   last line of stdout as JSON. *)
let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    match Json.parse (last_line out) with
    | Ok j -> Ok (spawned, j)
    | Error e -> Error ("rep output is not JSON: " ^ e))
  | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
    Error (Printf.sprintf "rep exited abnormally (status %d)" c)

(* ------------------------------------------------------------------ *)
(* Results.                                                             *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  digest : string;
  notes : string list;  (* what the correctness checks found *)
}

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          r.metrics))

type ctx = {
  kind : W.kind;
  size : W.size;
  seed : int;
  seconds : float;
  work : string;  (* scratch directory of this run *)
}

let size_args = function W.Full -> [] | W.Smoke -> [ "--smoke" ]

let rep_args c ~dir =
  [ "rep"; "--workload"; W.name c.kind; "--seed"; string_of_int c.seed;
    "--dir"; dir ]
  @ size_args c.size

let spawn_rep c ~dir =
  W.mkdir_p dir;
  match spawn (rep_args c ~dir) with
  | Error e -> Error e
  | Ok (spawned, j) -> (
    let f k = Json.float_member k j and i k = Json.int_member k j in
    let s k = Json.string_member k j in
    match
      ( f "setup_done", f "wall_s", i "jobs", i "failed", i "instructions",
        i "vmhwm_kb", s "digest", s "check" )
    with
    | ( Some setup_done, Some wall_s, Some jobs, Some failed, Some instructions,
        Some kb, Some digest, Some check ) ->
      Ok
        {
          wall_s;
          setup_s = setup_done -. spawned;
          jobs;
          failed;
          instructions;
          rss_mb = float_of_int kb /. 1024.0;
          digest;
          check;
        }
    | _ -> Error "rep reported an incomplete summary")

let spawn_setup c =
  match spawn (rep_args c ~dir:c.work @ [ "--setup-only" ]) with
  | Ok (spawned, j) ->
    Option.map (fun t -> t -. spawned) (Json.float_member "setup_done" j)
  | Error _ -> None

let rep_count = ref 0

let next_dir c =
  incr rep_count;
  Filename.concat c.work (Printf.sprintf "rep-%d" !rep_count)

(* Reps back to back until the next one would overrun [seconds] from
   [t_start], and at least [min_reps].  Two set-up-only children
   precede each rep.  Returns the reps, their errors and every set-up
   sample. *)
let run_reps c ~min_reps ~t_start =
  let reps = ref [] and errors = ref [] and setups = ref [] in
  let last = ref 0.0 in
  let count () = List.length !reps + List.length !errors in
  while count () < min_reps || now () -. t_start +. !last <= c.seconds do
    let t0 = now () in
    for _ = 1 to 2 do
      Option.iter (fun s -> setups := s :: !setups) (spawn_setup c)
    done;
    let dir = next_dir c in
    (match spawn_rep c ~dir with
    | Ok r ->
      reps := r :: !reps;
      setups := r.setup_s :: !setups
    | Error e -> errors := e :: !errors);
    last := now () -. t0;
    W.rm_rf dir
  done;
  (List.rev !reps, List.rev !errors, !setups)

(* Every rep must produce the same outputs, and those must match the
   pinned digest where there is one. *)
let check_reps c prepared (reps : rep list) errors =
  let notes = ref (List.map (fun e -> "rep failed: " ^ e) errors) in
  let digest, check =
    match reps with r :: _ -> (r.digest, r.check) | [] -> ("", "")
  in
  if List.exists (fun (r : rep) -> r.digest <> digest || r.check <> check) reps
  then
    notes := "reps disagree on their outputs" :: !notes;
  (match (c.size, pinned_digest c.kind c.seed) with
  | W.Full, Some d when d <> digest ->
    notes := Printf.sprintf "digest %s is not the pinned %s" digest d :: !notes
  | _ -> ());
  let failed =
    List.fold_left (fun acc (r : rep) -> acc + r.failed) 0 reps
    + (List.length errors * W.planned_jobs prepared)
  in
  if failed > 0 then notes := Printf.sprintf "%d job(s) failed" failed :: !notes;
  let attempted =
    List.fold_left (fun acc (r : rep) -> acc + r.jobs) 0 reps
    + (List.length errors * W.planned_jobs prepared)
  in
  (digest, check, attempted, failed, List.rev !notes)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics.                                       *)

let end_to_end c =
  let t_start = now () in
  let prepared = W.prepare c.kind c.size ~seed:c.seed in
  let min_reps = match c.size with W.Full -> 3 | W.Smoke -> 2 in
  let reps, errors, setups = run_reps c ~min_reps ~t_start in
  let digest, check, attempted, failed, notes = check_reps c prepared reps errors in
  (* The fleet's outputs do not carry instruction counts, and its digest
     is pinned for one seed only: replay it once, untimed, for both. *)
  let reps, notes =
    match prepared with
    | W.Fleet_w _ when reps <> [] ->
      let rp = W.replay (Spans.create ()) prepared ~dir:"" in
      let notes =
        if rp.W.r_check <> check then "replay disagrees with the reps" :: notes
        else notes
      in
      let count (r : rep) = { r with instructions = rp.W.r_instructions } in
      (List.map count reps, notes)
    | _ -> (reps, notes)
  in
  Printf.printf "perfbench %s  seed %d  %d rep(s) in %.1f s\n" (W.name c.kind)
    c.seed (List.length reps) (now () -. t_start);
  Printf.printf "  %-18s %14s %14s %14s %4s  %s\n" "metric" "median" "q1" "q3" "n"
    "unit";
  let metrics =
    List.map
      (fun (name, unit) ->
        let xs = e2e_samples reps ~setups name in
        let v = Stats.median xs in
        let q1, q3 = Stats.quartiles xs in
        Printf.printf "  %-18s %14.6g %14.6g %14.6g %4d  %s\n" name v q1 q3
          (List.length xs) unit;
        (name, v, unit))
      e2e_metrics
  in
  {
    correct = notes = [] && reps <> [];
    attempted = max 1 attempted;
    failed;
    metrics;
    digest;
    notes;
  }

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics.                                        *)

let layer_table rows ~job_time =
  Printf.printf "  %-20s %7s %11s %7s %10s\n" "span" "calls" "self_ms" "share"
    "p50_ms";
  List.iter
    (fun (r : Spans.row) ->
      Printf.printf "  %-20s %7d %11.3f %7.4f %10.4f\n" r.Spans.name r.calls
        (r.self_s *. 1e3)
        (if job_time > 0.0 then r.self_s /. job_time else 0.0)
        (Stats.median r.durations *. 1e3))
    rows

let per_layer c ~spans_file =
  let t_start = now () in
  let prepared = W.prepare c.kind c.size ~seed:c.seed in
  (* The first rep's outputs stay on disk for the replay. *)
  let dir = next_dir c in
  let first =
    match spawn_rep c ~dir with
    | Ok r -> r
    | Error e -> failwith ("the rep to replay failed: " ^ e)
  in
  let tr = Spans.create () in
  let gc0 = Gc.quick_stat () in
  let rp = W.replay tr prepared ~dir in
  let gc1 = Gc.quick_stat () in
  W.rm_rf dir;
  let spans = Spans.to_array tr in
  Option.iter (fun path -> Spans.write_jsonl path spans) spans_file;
  let rows = Spans.rows spans in
  let job_time = Spans.job_time spans in
  let probes = Probes.run c.size ~dir:(Filename.concat c.work "probes") in
  let more, errors, _ = run_reps c ~min_reps:1 ~t_start in
  let reps = first :: more in
  let digest, check, _, rep_failed, notes = check_reps c prepared reps errors in
  let notes =
    if rp.W.r_check <> check then "replay disagrees with the rep" :: notes
    else notes
  in
  let row name = List.find_opt (fun (r : Spans.row) -> r.Spans.name = name) rows in
  let p50 name scale =
    match row name with Some r -> Stats.median r.durations *. scale | None -> 0.0
  in
  let share l =
    if job_time > 0.0 then Spans.layer_self rows l /. job_time else 0.0
  in
  let jobs = max 1 rp.W.r_jobs in
  let job_durations =
    match row Spans.job_span with Some r -> r.durations | None -> []
  in
  let tail = Stats.tail_pct (List.length job_durations) in
  let wall = Stats.median (e2e_samples reps ~setups:[] "wall_s") in
  let values =
    [
      ("compiler.compile_ms_p50", p50 "compiler.compile" 1e3);
      ("compiler.share", share "compiler");
      ("machine.build_ms_p50", p50 "machine.build" 1e3);
      ("machine.share", share "machine");
      ("energy.power_ms_p50", p50 "energy.to_power" 1e3);
      ("energy.share", share "energy");
      ("workloads.program_ms_p50", p50 "workloads.program" 1e3);
      ("workloads.share", share "workloads");
      ("sim.run_ms_p50", p50 "sim.run" 1e3);
      ("sim.share", share "sim");
      ( "sim.step_minstr_per_s",
        float_of_int rp.W.r_instructions /. Spans.layer_self rows "sim" /. 1e6 );
      ("sim.instructions", float_of_int rp.W.r_instructions);
      ("sim.outages", float_of_int rp.W.r_outages);
      ("exp.job_ms_p50", p50 Spans.job_span 1e3);
      ("exp.job_ms_tail", Stats.percentile job_durations tail *. 1e3);
      ("exp.share", share "exp");
      ("exp.unattributed_share", (wall -. job_time) /. wall);
      ( "gc.minor_mwords_per_job",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int jobs /. 1e6 );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("fleet.share", share "fleet");
    ]
    @ probes
  in
  let metrics =
    List.map
      (fun (name, unit) -> (name, List.assoc name values, unit))
      layer_metrics
  in
  Printf.printf "perfbench %s  seed %d  replay of %d job(s), %.3f s of job time\n"
    (W.name c.kind) c.seed rp.W.r_jobs job_time;
  layer_table rows ~job_time;
  Printf.printf
    "  exp.job_ms_tail is p%g of %d jobs; e2e wall_s median %.4f s over %d \
     rep(s)\n"
    tail (List.length job_durations) wall (List.length reps);
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g  %s\n" name v unit)
    metrics;
  let failed = rep_failed + rp.W.r_failed in
  {
    correct = notes = [] && rp.W.r_failed = 0;
    attempted = jobs;
    failed;
    metrics;
    digest;
    notes;
  }

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at toy size, checked against BENCHMARK.json.   *)

(* Hand-built tree: a 10 s root with children covering [1,4] and the
   overlapping [3,6] (5 s of cover, not 6), and a grandchild [2,3]. *)
let check_self_times () =
  let mk id name parent t0 t1 = { Spans.id; name; parent; job = 0; t0; t1 } in
  let spans =
    [|
      mk 0 "exp.job" (-1) 0.0 10.0;
      mk 1 "a.x" 0 1.0 4.0;
      mk 2 "b.y" 0 3.0 6.0;
      mk 3 "c.z" 1 2.0 3.0;
    |]
  in
  let self = Spans.self_times spans in
  let expect = [| 5.0; 2.0; 3.0; 1.0 |] in
  Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) self expect
  && Spans.job_time spans = 10.0
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  && Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = (2.75, 8.25)

let catalogue section =
  match Json.parse_file "BENCHMARK.json" with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    List.filter_map
      (fun m ->
        match (Json.string_member "name" m, Json.string_member "unit" m) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (Option.value ~default:[] (Json.list_member section j))

let smoke ~work =
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        prerr_endline ("smoke: " ^ s))
      fmt
  in
  if not (check_self_times ()) then
    fail "self-time or quartile arithmetic is wrong";
  if catalogue "end_to_end" <> e2e_metrics then
    fail "end_to_end metrics differ from BENCHMARK.json";
  if catalogue "per_layer" <> layer_metrics then
    fail "per_layer metrics differ from BENCHMARK.json";
  let expect_metrics what r expected =
    if List.map (fun (n, _, u) -> (n, u)) r.metrics <> expected then
      fail "%s: metrics or units differ from the catalogue" what
  in
  List.iter
    (fun (name, kind) ->
      let c = { kind; size = W.Smoke; seed = default_seed; seconds = 0.0; work } in
      let runs = List.init 2 (fun _ -> end_to_end c) in
      List.iter
        (fun r ->
          if not r.correct then fail "%s: %s" name (String.concat "; " r.notes);
          expect_metrics name r e2e_metrics)
        runs;
      (match runs with
      | [ a; b ] when a.digest <> b.digest ->
        fail "%s: digest changed between runs" name
      | _ -> ());
      let t = per_layer c ~spans_file:None in
      if not t.correct then fail "%s trace: %s" name (String.concat "; " t.notes);
      expect_metrics (name ^ " trace") t layer_metrics;
      if List.assoc "exp.share" (List.map (fun (n, v, _) -> (n, v)) t.metrics) > 0.1
      then fail "%s: spans cover under 90%% of replayed job time" name)
    W.all;
  Printf.printf "smoke: %s\n" (if !ok then "ok" else "FAILED");
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line.                                                        *)

let usage =
  "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
  \                [--smoke] [--spans FILE]\n\
  \       perf.exe smoke\n\
   workloads: fleet, paper-unlimited, paper-harvested, tune-supervised"

let usage_error msg =
  Printf.eprintf "perf.exe: %s\n%s\n" msg usage;
  exit 2

type opts = {
  mutable workload : W.kind option;
  mutable o_seed : int;
  mutable o_seconds : float;
  mutable trace : bool;
  mutable o_size : W.size;
  mutable spans : string option;
  mutable dir : string option;
  mutable setup_only : bool;
}

let parse args =
  let o =
    { workload = None; o_seed = default_seed; o_seconds = 20.0; trace = false;
      o_size = W.Full; spans = None; dir = None; setup_only = false }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match W.of_name v with
      | Some k -> o.workload <- Some k
      | None -> usage_error (Printf.sprintf "unknown workload %S" v));
      go rest
    | "--seed" :: v :: rest -> o.o_seed <- int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest ->
      o.o_seconds <- float_of_int (int_arg "--seconds" v);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> o.trace <- false
      | "1" -> o.trace <- true
      | _ -> usage_error "--trace expects 0 or 1");
      go rest
    | "--smoke" :: rest -> o.o_size <- W.Smoke; go rest
    | "--spans" :: v :: rest -> o.spans <- Some v; go rest
    | "--dir" :: v :: rest -> o.dir <- Some v; go rest
    | "--setup-only" :: rest -> o.setup_only <- true; go rest
    | a :: _ -> usage_error (Printf.sprintf "unexpected argument %S" a)
  in
  go args;
  o

(* Scratch space inside the working directory (the checkout), removed
   when the run ends. *)
let with_work f =
  let root = "_perfbench" in
  let work = Filename.concat root (string_of_int (Unix.getpid ())) in
  W.mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      W.rm_rf work;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f (Filename.concat (Sys.getcwd ()) work))

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | "rep" :: rest -> (
    let o = parse rest in
    match (o.workload, o.dir) with
    | Some kind, Some dir ->
      rep_main kind o.o_size ~seed:o.o_seed ~dir ~setup_only:o.setup_only
    | _ -> usage_error "rep needs --workload and --dir")
  | [ "smoke" ] -> with_work (fun work -> smoke ~work)
  | args ->
    let o = parse args in
    let kind =
      match o.workload with
      | Some k -> k
      | None -> usage_error "--workload is required"
    in
    with_work (fun work ->
        let c =
          { kind; size = o.o_size; seed = o.o_seed; seconds = o.o_seconds; work }
        in
        let r = if o.trace then per_layer c ~spans_file:o.spans else end_to_end c in
        List.iter (fun n -> Printf.printf "  check: %s\n" n) r.notes;
        Printf.printf "  digest: %s%s\n" r.digest
          (if r.correct then "  (outputs correct)" else "  (OUTPUTS INCORRECT)");
        print_endline (result_json r);
        if r.correct then 0 else 1)

let () =
  (* The supervisor re-executes this binary as its worker processes. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = Sweep_exp.Worker.argv_flag then
    exit (Sweep_exp.Worker.main ())
  else exit (main ())
