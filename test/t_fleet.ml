(* Fleet simulation: spec validation, pure device derivation, sketch
   determinism, journalled resume, and the status cohort rollup. *)

module Spec = Sweep_fleet.Spec
module Device = Sweep_fleet.Device
module Sketch = Sweep_fleet.Sketch
module Runner = Sweep_fleet.Runner
module Jobs = Sweep_exp.Jobs
module C = Sweep_exp.Exp_common
module Driver = Sweep_sim.Driver
module Json = Sweep_util.Json

let check = Alcotest.check

let with_tmp_dir = Thelpers.with_tmp_dir

let base_arm = Spec.default_arm

let spec =
  {
    Spec.name = "t";
    devices = 6;
    seed = 11;
    bench = "sha";
    scale = 0.02;
    design = Sweep_sim.Harness.Sweep;
    trace = Sweep_energy.Power_trace.Rf_office;
    v_max = 3.5;
    v_min = 2.8;
    jitter =
      { Spec.max_shift_steps = 50; amp_spread_permille = 200; max_drop_bp = 300 };
    arms =
      [
        { base_arm with Spec.arm_name = "base"; weight = 2 };
        { base_arm with Spec.arm_name = "bigcap"; weight = 1; farads = 940e-9 };
      ];
  }

(* ---------------- spec ---------------- *)

let rejects what s =
  Alcotest.(check bool) what true (Spec.validate s <> [])

let test_spec_validate () =
  check (Alcotest.list Alcotest.string) "base spec valid" [] (Spec.validate spec);
  rejects "zero devices" { spec with Spec.devices = 0 };
  rejects "unknown bench" { spec with Spec.bench = "nope" };
  rejects "zero scale" { spec with Spec.scale = 0.0 };
  rejects "inverted thresholds" { spec with Spec.v_max = 2.0 };
  rejects "amp spread 1000 (dead device)"
    { spec with Spec.jitter = { spec.Spec.jitter with Spec.amp_spread_permille = 1000 } };
  rejects "drop_bp beyond 10000"
    { spec with Spec.jitter = { spec.Spec.jitter with Spec.max_drop_bp = 10001 } };
  rejects "no arms" { spec with Spec.arms = [] };
  rejects "duplicate arm names"
    { spec with Spec.arms = [ base_arm; base_arm ] };
  rejects "zero weight"
    { spec with Spec.arms = [ { base_arm with Spec.weight = 0 } ] };
  rejects "bad geometry"
    { spec with Spec.arms = [ { base_arm with Spec.cache_bytes = 100 } ] };
  rejects "zero buffer entries"
    { spec with Spec.arms = [ { base_arm with Spec.buffer_entries = 0 } ] }

let test_spec_json_roundtrip () =
  match Json.parse (Spec.render spec) with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Spec.of_json j with
    | Error e -> Alcotest.fail e
    | Ok spec' ->
      check Alcotest.string "render round-trips" (Spec.render spec)
        (Spec.render spec');
      check Alcotest.string "digest stable" (Spec.digest spec)
        (Spec.digest spec'))

let test_spec_json_rejects () =
  let parse s = Result.get_ok (Json.parse s) in
  let bad what s =
    Alcotest.(check bool) what true (Result.is_error (Spec.of_json (parse s)))
  in
  bad "missing schema_version" {|{"name":"t","devices":1,"seed":0,"bench":"sha"}|};
  bad "mistyped devices"
    {|{"schema_version":1,"name":"t","devices":"many","seed":0,"bench":"sha"}|};
  bad "unknown design"
    {|{"schema_version":1,"name":"t","devices":1,"seed":0,"bench":"sha","design":"vax"}|};
  bad "unknown trace"
    {|{"schema_version":1,"name":"t","devices":1,"seed":0,"bench":"sha","trace":"mains"}|};
  (* Absent optional fields take defaults. *)
  match
    Spec.of_json
      (parse {|{"schema_version":1,"name":"t","devices":2,"seed":3,"bench":"sha"}|})
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check (Alcotest.float 0.0) "default scale" 1.0 s.Spec.scale;
    check Alcotest.int "default single arm" 1 (List.length s.Spec.arms)

(* ---------------- device ---------------- *)

let test_device_pure_and_bounded () =
  for id = 0 to spec.Spec.devices - 1 do
    let a = Device.instantiate spec ~id in
    let b = Device.instantiate spec ~id in
    Alcotest.(check bool) "instantiate is pure" true (a = b);
    Alcotest.(check bool) "shift within bound" true
      (a.Device.shift_steps >= 0 && a.Device.shift_steps <= 50);
    Alcotest.(check bool) "amplitude within spread" true
      (a.Device.amp_permille >= 800 && a.Device.amp_permille <= 1200);
    Alcotest.(check bool) "drop odds within bound" true
      (a.Device.drop_bp >= 0 && a.Device.drop_bp <= 300)
  done;
  Alcotest.check_raises "id out of range"
    (Invalid_argument "Device.instantiate: id 6 outside [0, 6)") (fun () ->
      ignore (Device.instantiate spec ~id:6))

let test_device_key_invariant () =
  (* The Jittered power spec's identity must match what the render-time
     power key derives from the materialised (tagged) trace — otherwise
     fleet jobs and their results would file under different keys. *)
  List.iter
    (fun id ->
      let d = Device.instantiate spec ~id in
      let p = Device.power spec d in
      check Alcotest.string "power_id = power_key of materialised trace"
        (Jobs.power_id p)
        (C.power_key (Jobs.to_power p));
      check Alcotest.string "job key matches device key"
        (Device.key spec d)
        (Jobs.key (Device.job spec d));
      check Alcotest.string "cohort recovered from key"
        d.Device.arm.Spec.arm_name
        (Device.cohort_of_key (Device.key spec d)))
    [ 0; 3; 5 ]

let test_census () =
  let per_arm, unique = Runner.census spec in
  check Alcotest.int "census covers every device" spec.Spec.devices
    (List.fold_left (fun a (_, n) -> a + n) 0 per_arm);
  Alcotest.(check bool) "censused arms are declared arms" true
    (List.for_all
       (fun (n, _) -> List.exists (fun a -> a.Spec.arm_name = n) spec.Spec.arms)
       per_arm);
  Alcotest.(check bool) "unique keys positive and bounded" true
    (unique >= 1 && unique <= spec.Spec.devices)

(* ---------------- sketch ---------------- *)

let outcome ~on_ns ~outages ~deaths ~instructions ~joules =
  {
    Driver.completed = true;
    on_ns;
    off_ns = 0.0;
    outages;
    deaths;
    backups = outages - deaths;
    failed_backups = 0;
    compute_joules = joules;
    backup_joules = 0.0;
    restore_joules = 0.0;
    quiescent_joules = 0.0;
    instructions;
    injected_faults = 0;
  }

let test_sketch_fold_and_quantiles () =
  let sk = Sketch.create () in
  (* 100 devices, reboot count = id / 10: a staircase with known
     quantiles (unit reboot bins are exact). *)
  for id = 0 to 99 do
    Sketch.fold_device sk ~id ~arm:"base" ~replay:"r"
      (outcome ~on_ns:1e6 ~outages:(id / 10) ~deaths:0 ~instructions:1000
         ~joules:1e-6)
  done;
  let g = sk.Sketch.total in
  check Alcotest.int "all folded" 100 g.Sketch.devices;
  check (Alcotest.option (Alcotest.float 1e-9)) "reboot p50"
    (Some 4.0)
    (Sketch.quantile g.Sketch.h_reboots 0.5);
  check (Alcotest.option (Alcotest.float 1e-9)) "reboot p99"
    (Some 9.0)
    (Sketch.quantile g.Sketch.h_reboots 0.99);
  check (Alcotest.option (Alcotest.float 1e-9)) "reboot mean"
    (Some 4.5)
    (Sketch.mean g.Sketch.h_reboots);
  (* Identical rates: every quantile collapses to the observed value. *)
  check (Alcotest.option (Alcotest.float 1e-3)) "rate p99 clamps to max"
    (Some 1e6)
    (Sketch.quantile g.Sketch.h_rate 0.99);
  check Alcotest.int "tail bounded" Sketch.tail_keep
    (List.length sk.Sketch.tails)

let test_sketch_failures_and_roundtrip () =
  let sk = Sketch.create () in
  for id = 0 to 39 do
    if id mod 2 = 0 then
      Sketch.fold_device sk ~id ~arm:"base" ~replay:"r"
        (outcome ~on_ns:1e6 ~outages:1 ~deaths:1 ~instructions:500
           ~joules:2e-6)
    else Sketch.fold_failure sk ~id ~arm:"base"
  done;
  check Alcotest.int "failures counted" 20 sk.Sketch.failed_total;
  check Alcotest.int "failed ids bounded" (min 20 Sketch.failed_keep)
    (List.length sk.Sketch.failed_ids);
  check Alcotest.int "resume cursor counts both" 40 (Sketch.devices sk);
  let g = Sketch.cohort sk "base" in
  check Alcotest.int "cohort successes" 20 g.Sketch.devices;
  check Alcotest.int "cohort failures" 20 g.Sketch.failed;
  check (Alcotest.option (Alcotest.float 1e-9)) "survival p50 of the dead"
    (Some 0.0)
    (Sketch.quantile g.Sketch.h_survival 0.5);
  match Sketch.parse (Sketch.render sk) with
  | Error e -> Alcotest.fail e
  | Ok sk' ->
    check Alcotest.string "sketch JSON round-trips byte-exactly"
      (Sketch.render sk) (Sketch.render sk')

(* ---------------- runner ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_fleet ?workers ?kill_after ?chunk dir =
  Runner.run ?workers ?kill_after ?chunk ~dir spec

let test_runner_deterministic_across_parallelism () =
  with_tmp_dir (fun d1 ->
      with_tmp_dir (fun d2 ->
          let r1 = Result.get_ok (run_fleet ~workers:1 d1) in
          let r2 = Result.get_ok (run_fleet ~workers:4 d2) in
          check Alcotest.int "fresh run" 0 r1.Runner.resumed_from;
          check Alcotest.string "-j1 and -j4 byte-identical"
            (read_file r1.Runner.report_path)
            (read_file r2.Runner.report_path);
          check Alcotest.int "every device aggregated" spec.Spec.devices
            (Sketch.devices r1.Runner.state)))

let test_runner_kill_resume_identity () =
  with_tmp_dir (fun ref_dir ->
      with_tmp_dir (fun dir ->
          let reference = Result.get_ok (run_fleet ~workers:2 ref_dir) in
          (match run_fleet ~workers:2 ~chunk:2 ~kill_after:2 dir with
          | exception Runner.Interrupted { folded } ->
            check Alcotest.int "killed at the chunk boundary" 2 folded
          | _ -> Alcotest.fail "expected Interrupted");
          let resumed = Result.get_ok (run_fleet ~workers:2 ~chunk:2 dir) in
          check Alcotest.int "resumed from the journal" 2
            resumed.Runner.resumed_from;
          check Alcotest.string "kill/resume byte-identical"
            (read_file reference.Runner.report_path)
            (read_file resumed.Runner.report_path)))

let test_runner_rejects_foreign_journal () =
  with_tmp_dir (fun dir ->
      (match run_fleet ~workers:1 ~chunk:2 ~kill_after:2 dir with
      | exception Runner.Interrupted _ -> ()
      | _ -> Alcotest.fail "expected Interrupted");
      match Runner.run ~workers:1 ~dir { spec with Spec.seed = 12 } with
      | Error e ->
        Alcotest.(check bool) "digest mismatch reported" true
          (let lower = String.lowercase_ascii e in
           let has sub =
             let n = String.length lower and m = String.length sub in
             let rec at i = i + m <= n && (String.sub lower i m = sub || at (i + 1)) in
             at 0
           in
           has "digest")
      | Ok _ -> Alcotest.fail "foreign journal accepted")

(* Half a journal line from a crash is cut before the resume appends,
   so every line stays whole and the run converges to the same bytes. *)
let test_runner_torn_journal () =
  let spec = { spec with Spec.devices = 24; scale = 0.05 } in
  let run ?kill_after dir =
    Runner.run ~workers:1 ?kill_after ~chunk:4 ~dir spec
  in
  let killed dir =
    match run ~kill_after:8 dir with
    | exception Runner.Interrupted _ -> ()
    | _ -> Alcotest.fail "expected Interrupted"
  in
  with_tmp_dir (fun ref_dir ->
      with_tmp_dir (fun dir ->
          let reference = Result.get_ok (run ref_dir) in
          killed dir;
          Thelpers.tear_last_line (Runner.journal_path dir);
          killed dir;
          let resumed = Result.get_ok (run dir) in
          String.split_on_char '\n' (read_file (Runner.journal_path dir))
          |> List.filter (( <> ) "")
          |> List.iteri (fun i line ->
                 Alcotest.(check bool)
                   (Printf.sprintf "journal line %d parses" (i + 1))
                   true
                   (Result.is_ok (Json.parse line)));
          check Alcotest.string "torn, resumed twice = uninterrupted"
            (read_file reference.Runner.report_path)
            (read_file resumed.Runner.report_path)))

(* ---------------- sharding balance ---------------- *)

let test_route_hash_balance () =
  (* 10k fleet job keys must spread evenly over 2/4/8 worker slots —
     FNV-1a over the canonical key is the supervisor's routing hash. *)
  let big = { spec with Spec.devices = 10_000 } in
  let keys =
    List.init 10_000 (fun id ->
        Device.key big (Device.instantiate big ~id))
  in
  List.iter
    (fun workers ->
      let counts = Array.make workers 0 in
      List.iter
        (fun k ->
          let slot = Sweep_exp.Supervisor.route_hash k mod workers in
          counts.(slot) <- counts.(slot) + 1)
        keys;
      let mean = 10_000 / workers in
      Array.iteri
        (fun slot n ->
          Alcotest.(check bool)
            (Printf.sprintf "%d workers: slot %d balanced (%d)" workers slot n)
            true
            (n >= mean / 2 && n <= mean * 3 / 2))
        counts)
    [ 2; 4; 8 ]

(* ---------------- status rollup ---------------- *)

let test_status_cohort_rollup () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "status.json" in
      let st =
        Sweep_exp.Status.create ~path ~interval_s:0.0
          ~rollup:Device.cohort_of_key ~max_running:2 ~workers:2 ()
      in
      let per_arm, _ = Runner.census spec in
      List.iter
        (fun (name, total) ->
          Sweep_exp.Status.declare_cohort st ~name ~total)
        per_arm;
      Sweep_exp.Status.add_total st spec.Spec.devices;
      let keys =
        List.init spec.Spec.devices (fun id ->
            Device.key spec (Device.instantiate spec ~id))
      in
      List.iteri
        (fun i k ->
          Sweep_exp.Status.job_started st ~key:k;
          if i < 4 then
            Sweep_exp.Status.job_finished st ~key:k ~ok:(i <> 0)
              ~elapsed_s:0.1 ~sim_ns:1e6)
        keys;
      Sweep_exp.Status.write st;
      match Sweep_analyze.Status_file.load path with
      | Error e -> Alcotest.fail e
      | Ok s ->
        check Alcotest.int "rollup schema"
          Sweep_exp.Status.rollup_schema_version
          s.Sweep_analyze.Status_file.schema_version;
        check (Alcotest.list Alcotest.string) "snapshot validates" []
          (Sweep_analyze.Status_file.validate s);
        check Alcotest.int "cohort rows" 2
          (List.length s.Sweep_analyze.Status_file.cohorts);
        let totals =
          List.fold_left
            (fun a c -> a + c.Sweep_analyze.Status_file.c_total)
            0 s.Sweep_analyze.Status_file.cohorts
        in
        check Alcotest.int "cohort totals cover the fleet" spec.Spec.devices
          totals;
        check Alcotest.int "done folded into cohorts" 3
          (List.fold_left
             (fun a c -> a + c.Sweep_analyze.Status_file.c_done)
             0 s.Sweep_analyze.Status_file.cohorts);
        check Alcotest.int "failure folded into cohorts" 1
          (List.fold_left
             (fun a c -> a + c.Sweep_analyze.Status_file.c_failed)
             0 s.Sweep_analyze.Status_file.cohorts);
        Alcotest.(check bool) "running list capped" true
          (List.length s.Sweep_analyze.Status_file.running <= 2))

(* ---------------- fleet view ---------------- *)

let test_fleet_view_roundtrip () =
  with_tmp_dir (fun dir ->
      let r = Result.get_ok (run_fleet ~workers:1 dir) in
      match Sweep_analyze.Fleet_view.load r.Runner.report_path with
      | Error e -> Alcotest.fail e
      | Ok v ->
        let v_spec = v.Sweep_analyze.Fleet_view.spec in
        check Alcotest.string "fleet name" "t" v_spec.Spec.name;
        check Alcotest.int "declared devices" spec.Spec.devices
          v_spec.Spec.devices;
        check Alcotest.string "digest embedded" (Spec.digest spec)
          v.Sweep_analyze.Fleet_view.spec_digest;
        let report =
          Sweep_analyze.Fleet_view.report ~source:r.Runner.report_path v
        in
        check Alcotest.int "four sections" 4
          (List.length report.Sweep_analyze.Report.sections);
        (* The state read back from fleet.json is the runner's state. *)
        let st = v.Sweep_analyze.Fleet_view.state in
        check Alcotest.string "state round-trips" (Sketch.render r.Runner.state)
          (Sketch.render st);
        check (Alcotest.option (Alcotest.float 1e-9)) "p90 agrees"
          (Sketch.quantile r.Runner.state.Sketch.total.Sketch.h_rate 0.9)
          (Sketch.quantile st.Sketch.total.Sketch.h_rate 0.9))

let suite =
  [
    Alcotest.test_case "spec validate" `Quick test_spec_validate;
    Alcotest.test_case "spec json roundtrip" `Quick test_spec_json_roundtrip;
    Alcotest.test_case "spec json rejects" `Quick test_spec_json_rejects;
    Alcotest.test_case "device purity" `Quick test_device_pure_and_bounded;
    Alcotest.test_case "device key invariant" `Quick test_device_key_invariant;
    Alcotest.test_case "census" `Quick test_census;
    Alcotest.test_case "sketch quantiles" `Quick test_sketch_fold_and_quantiles;
    Alcotest.test_case "sketch failures" `Quick
      test_sketch_failures_and_roundtrip;
    Alcotest.test_case "runner parallel determinism" `Quick
      test_runner_deterministic_across_parallelism;
    Alcotest.test_case "runner kill/resume" `Quick
      test_runner_kill_resume_identity;
    Alcotest.test_case "runner torn journal" `Quick test_runner_torn_journal;
    Alcotest.test_case "runner foreign journal" `Quick
      test_runner_rejects_foreign_journal;
    Alcotest.test_case "route hash balance" `Quick test_route_hash_balance;
    Alcotest.test_case "status cohort rollup" `Quick test_status_cohort_rollup;
    Alcotest.test_case "fleet view" `Quick test_fleet_view_roundtrip;
  ]
