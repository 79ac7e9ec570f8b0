(* Trace-analysis subsystem tests: the JSON parser, the JSONL
   trace round-trip through a real simulation, Chrome B/E span balance
   when a power failure lands mid-region, the derived views, diff
   verdicts at the threshold boundary, and the bench history file. *)

module A = Sweep_analyze
module Json = Sweep_util.Json
module Obs = Sweep_obs
module Ev = Sweep_obs.Event
module Sink = Sweep_obs.Sink
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Trace = Sweep_energy.Power_trace

let check = Alcotest.check

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sweep_analyze_test_%d_%s" (Unix.getpid ()) name)

(* A short intermittent run: small capacitor + RF-office harvesting
   kills the machine mid-region several times before completion. *)
let run_intermittent sink =
  let w = Sweep_workloads.Registry.find "sha" in
  let ast = Sweep_workloads.Workload.program ~scale:0.05 w in
  let power =
    Driver.harvested ~trace:(Trace.make Trace.Rf_office) ~farads:100e-9 ()
  in
  Sink.with_sink sink (fun () -> H.run H.Sweep ~power ast)

(* ------------------------------------------------------------------ *)
(* JSON parser                                                         *)

let test_json_parser () =
  let ok s =
    match Json.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  (match ok {|{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e2}}|} with
  | Json.Obj fields ->
    check (Alcotest.option (Alcotest.float 0.0)) "num" (Some 1.0)
      (Option.bind (List.assoc_opt "a" fields) Json.to_float);
    (match List.assoc_opt "b" fields with
    | Some (Json.List [ Json.Bool true; Json.Null; Json.Str "x\n" ]) -> ()
    | _ -> Alcotest.fail "list payload");
    check
      (Alcotest.option (Alcotest.float 0.0))
      "nested" (Some (-250.0))
      (Option.bind (List.assoc_opt "c" fields) (Json.float_member "d"))
  | _ -> Alcotest.fail "expected object");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ];
  (* render/parse round-trip *)
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 0.1);
        ("i", Json.Num 42.0);
        ("l", Json.List [ Json.Bool false; Json.Null ]);
      ]
  in
  check Alcotest.bool "render round-trips" true
    (Json.parse (Json.render v) = Ok v)

(* ------------------------------------------------------------------ *)
(* JSONL trace round-trip on a real run                                *)

let test_jsonl_trace_roundtrip_real_run () =
  let path = tmp_path "trace.jsonl" in
  let r = run_intermittent (Obs.Jsonl_sink.create path) in
  check Alcotest.bool "run saw power failures" true
    (r.H.outcome.Driver.deaths > 0);
  let entries, stats = Result.get_ok (A.Trace_reader.read_all path) in
  Sys.remove path;
  check Alcotest.int "no malformed lines" 0 stats.A.Trace_reader.malformed;
  check Alcotest.int "nothing dropped" 0 stats.A.Trace_reader.dropped;
  check Alcotest.bool "events parsed" true (stats.A.Trace_reader.parsed > 0);
  check Alcotest.int "every line parsed" stats.A.Trace_reader.lines
    stats.A.Trace_reader.parsed;
  (* Re-render each parsed event: byte-identical line = true inverse. *)
  List.iter
    (fun { A.Trace_reader.ns; event } ->
      let line = Obs.Jsonl_sink.render_line ~ns event in
      match A.Trace_reader.parse_line line with
      | Some e2 when e2.A.Trace_reader.event = event -> ()
      | _ -> Alcotest.fail ("unstable round-trip: " ^ line))
    entries

(* ------------------------------------------------------------------ *)
(* Chrome B/E balance when power failure lands mid-region              *)

let test_chrome_spans_balanced_across_power_failure () =
  let path = tmp_path "trace.json" in
  let r = run_intermittent (Obs.Chrome_trace.create path) in
  check Alcotest.bool "run saw power failures" true
    (r.H.outcome.Driver.deaths > 0);
  let body =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  let events =
    match Json.parse body with
    | Ok j -> (
      match Json.list_member "traceEvents" j with
      | Some l -> l
      | None -> Alcotest.fail "no traceEvents array")
    | Error e -> Alcotest.fail ("chrome trace not JSON: " ^ e)
  in
  (* Per (pid, tid): every E closes a B, and nothing stays open. *)
  let depth : (float * float, int) Hashtbl.t = Hashtbl.create 8 in
  let b_count = ref 0 in
  List.iter
    (fun ev ->
      match Json.string_member "ph" ev with
      | Some ("B" | "E" as ph) ->
        let key =
          ( Option.value ~default:nan (Json.float_member "pid" ev),
            Option.value ~default:nan (Json.float_member "tid" ev) )
        in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
        if ph = "B" then begin
          incr b_count;
          Hashtbl.replace depth key (d + 1)
        end
        else begin
          if d <= 0 then Alcotest.fail "E without matching B";
          Hashtbl.replace depth key (d - 1)
        end
      | _ -> ())
    events;
  check Alcotest.bool "spans present" true (!b_count > 0);
  Hashtbl.iter
    (fun _ d -> check Alcotest.int "all spans closed" 0 d)
    depth

(* ------------------------------------------------------------------ *)
(* Derived views on synthetic entries                                  *)

let entry ns event = { A.Trace_reader.ns; event }

let test_region_view_interruption () =
  (* Two completed regions, then a power failure cutting region 3 at
     the same ns (the driver's emit order for a hard death). *)
  let entries =
    [
      entry 0.0 (Ev.Region_begin { seq = 1; buf = 0 });
      entry 100.0 (Ev.Region_end { seq = 1; buf = 0 });
      entry 100.0 (Ev.Region_begin { seq = 2; buf = 1 });
      entry 250.0 (Ev.Region_end { seq = 2; buf = 1 });
      entry 250.0 (Ev.Region_begin { seq = 3; buf = 0 });
      entry 300.0 (Ev.Death { volts = 2.8 });
      entry 300.0 (Ev.Power_down { volts = 2.8 });
      entry 300.0 (Ev.Region_end { seq = 3; buf = 0 });
    ]
  in
  let v = A.Region_view.of_entries entries in
  check Alcotest.int "completed" 2 v.A.Region_view.completed;
  check Alcotest.int "interrupted" 1 v.A.Region_view.interrupted;
  check (Alcotest.float 0.0) "forward" 250.0 v.A.Region_view.forward_ns;
  check (Alcotest.float 0.0) "wasted" 50.0 v.A.Region_view.wasted_ns;
  check (Alcotest.float 0.0) "p50" 100.0 (A.Region_view.percentile v 50.0);
  check (Alcotest.float 0.0) "p100" 150.0 (A.Region_view.percentile v 100.0)

let test_power_view_recovery_cases () =
  let reboot_cycle ~down ~up ~outage marks =
    [
      entry down (Ev.Death { volts = 2.8 });
      entry down (Ev.Power_down { volts = 2.8 });
      entry up (Ev.Reboot { outage });
    ]
    @ List.map
        (fun name -> entry up (Ev.Mark { name; cat = Ev.Buffer }))
        marks
  in
  let entries =
    reboot_cycle ~down:100.0 ~up:200.0 ~outage:1
      [ "discard seq 4 (2 lines)" ]
    @ reboot_cycle ~down:300.0 ~up:450.0 ~outage:2 [] (* clean *)
    @ reboot_cycle ~down:500.0 ~up:600.0 ~outage:3
        [ "redo seq 9 (3 lines)"; "discard seq 10 (1 lines)" ]
    @ reboot_cycle ~down:700.0 ~up:800.0 ~outage:4 [] (* clean, at EOF *)
  in
  let v = A.Power_view.of_entries entries in
  check Alcotest.int "reboots" 4 v.A.Power_view.reboots;
  check (Alcotest.float 0.0) "off time" 450.0 v.A.Power_view.off_ns;
  check Alcotest.int "(0,0) buffers" 2 v.A.Power_view.discarded_buffers;
  check Alcotest.int "(0,0) lines" 3 v.A.Power_view.discarded_lines;
  check Alcotest.int "(1,0) buffers" 1 v.A.Power_view.redo_buffers;
  check Alcotest.int "(1,0) lines" 3 v.A.Power_view.redo_lines;
  (* The clean reboot followed by another power-down must survive the
     next cycle's accounting; the final one settles at end-of-trace. *)
  check Alcotest.int "(1,1) clean reboots" 2 v.A.Power_view.clean_reboots

let test_buffer_view_overlap_and_dead_time () =
  let phase buf seq phase start_ns end_ns =
    entry end_ns (Ev.Buf_phase { buf; seq; phase; start_ns; end_ns })
  in
  let entries =
    [
      (* buf 0: busy [0,100), dead 50, busy [150,200) *)
      phase 0 1 Ev.Fill 0.0 60.0;
      phase 0 1 Ev.Flush 60.0 80.0;
      phase 0 1 Ev.Drain 80.0 100.0;
      phase 0 3 Ev.Fill 150.0 200.0;
      (* buf 1: busy [80,160) -> overlaps buf 0 on [80,100) and [150,160) *)
      phase 1 2 Ev.Fill 80.0 160.0;
    ]
  in
  let v = A.Buffer_view.of_entries entries in
  (match v.A.Buffer_view.buffers with
  | [ b0; b1 ] ->
    check Alcotest.int "buf0 cycles" 2 b0.A.Buffer_view.cycles;
    check (Alcotest.float 0.0) "buf0 busy" 150.0 (A.Buffer_view.busy_ns b0);
    check (Alcotest.float 0.0) "buf0 dead" 50.0 b0.A.Buffer_view.dead_ns;
    check (Alcotest.float 0.0) "buf1 fill" 80.0 b1.A.Buffer_view.fill_ns
  | _ -> Alcotest.fail "expected two buffers");
  check (Alcotest.float 1e-9) "overlap" 30.0 v.A.Buffer_view.overlap_ns;
  check (Alcotest.float 1e-9) "union" 200.0 v.A.Buffer_view.busy_union_ns;
  let hist = A.Buffer_view.dead_time_histogram v in
  check Alcotest.int "one gap, <=100ns bucket" 1 (snd (List.hd hist))

(* ------------------------------------------------------------------ *)
(* Diff verdicts at the threshold boundary                             *)

let test_diff_threshold_boundary () =
  let run_of v = [ ("k", [ ("on_ns", v) ]) ] in
  let verdict base cur =
    match
      A.Diff.compare_runs ~threshold_pct:5.0 (run_of base) (run_of cur)
    with
    | Ok { A.Diff.deltas = [ d ]; _ } -> d.A.Diff.verdict
    | Ok _ -> Alcotest.fail "expected one delta"
    | Error e -> Alcotest.fail e
  in
  (* on_ns is lower-better; exactly +5% is NOT a regression (strictly
     beyond), +5.1% is, -5.1% is an improvement. *)
  check Alcotest.bool "at threshold" true
    (verdict 100.0 105.0 = A.Diff.Unchanged);
  check Alcotest.bool "just beyond" true
    (verdict 100.0 105.1 = A.Diff.Regression);
  check Alcotest.bool "just below" true
    (verdict 100.0 104.9 = A.Diff.Unchanged);
  check Alcotest.bool "improvement" true
    (verdict 100.0 94.9 = A.Diff.Improvement);
  (* higher-better flips the direction. *)
  let hb base cur =
    match
      A.Diff.compare_runs ~threshold_pct:5.0
        [ ("k", [ ("parallelism_eff", base) ]) ]
        [ ("k", [ ("parallelism_eff", cur) ]) ]
    with
    | Ok { A.Diff.deltas = [ d ]; _ } -> d.A.Diff.verdict
    | _ -> Alcotest.fail "expected one delta"
  in
  check Alcotest.bool "higher-better drop" true
    (hb 100.0 90.0 = A.Diff.Regression);
  check Alcotest.bool "higher-better gain" true
    (hb 100.0 110.0 = A.Diff.Improvement);
  (* Info fields never gate, whatever the delta. *)
  (match
     A.Diff.compare_runs ~threshold_pct:5.0
       [ ("k", [ ("backups", 1.0) ]) ]
       [ ("k", [ ("backups", 100.0) ]) ]
   with
  | Ok d ->
    check Alcotest.bool "info never gates" false (A.Diff.has_regressions d)
  | Error e -> Alcotest.fail e);
  (* Zero baseline: sentinel delta, still a verdict. *)
  (match
     A.Diff.compare_runs ~threshold_pct:5.0 (run_of 0.0) (run_of 1.0)
   with
  | Ok ({ A.Diff.deltas = [ d ]; _ } as t) ->
    check (Alcotest.float 0.0) "sentinel" A.Diff.zero_base_sentinel
      d.A.Diff.delta_pct;
    check Alcotest.bool "zero-base regression" true (A.Diff.has_regressions t)
  | _ -> Alcotest.fail "expected one delta");
  (* Disjoint keys are an error, not an empty success. *)
  (match
     A.Diff.compare_runs ~threshold_pct:5.0
       [ ("a", [ ("on_ns", 1.0) ]) ]
       [ ("b", [ ("on_ns", 1.0) ]) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no common keys must be an error")

(* ------------------------------------------------------------------ *)
(* Bench history file                                                  *)

let test_bench_history_roundtrip () =
  let path = tmp_path "BENCH.json" in
  if Sys.file_exists path then Sys.remove path;
  let e1 =
    { A.Bench.ts = "2026-08-05T00:00:00Z"; commit = "aaa";
      results = [ ("k", [ ("on_ns", 10.0); ("miss_rate", 0.01) ]) ];
      throughput = [] }
  in
  let e2 = { e1 with A.Bench.commit = "bbb";
                     results = [ ("k", [ ("on_ns", 12.0) ]) ];
                     throughput = [ ("k", 123456.0) ] } in
  (match A.Bench.append ~path e1 with
  | Ok 1 -> ()
  | Ok n -> Alcotest.failf "expected 1 entry, got %d" n
  | Error e -> Alcotest.fail e);
  (match A.Bench.append ~path e2 with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "second append");
  (match A.Bench.load_entries path with
  | Ok [ r1; r2 ] ->
    check Alcotest.string "first commit" "aaa" r1.A.Bench.commit;
    check Alcotest.string "latest commit" "bbb" r2.A.Bench.commit;
    check
      (Alcotest.option (Alcotest.float 0.0))
      "values survive" (Some 10.0)
      (Option.bind
         (List.assoc_opt "k" r1.A.Bench.results)
         (List.assoc_opt "on_ns"))
  | Ok l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  (match A.Bench.latest path with
  | Ok e ->
    check Alcotest.string "latest" "bbb" e.A.Bench.commit;
    check
      (Alcotest.option (Alcotest.float 0.0))
      "throughput survives" (Some 123456.0)
      (List.assoc_opt "k" e.A.Bench.throughput)
  | Error e -> Alcotest.fail e);
  (* Schema-v1 entries (no throughput member) still load. *)
  let oc = open_out path in
  output_string oc
    (Printf.sprintf
       "{\"schema_version\":1,\"matrix_id\":%S,\"entries\":[{\"ts\":\"t\",\
        \"commit\":\"v1c\",\"results\":{\"k\":{\"on_ns\":7}}}]}"
       A.Bench.matrix_id);
  close_out oc;
  (match A.Bench.latest path with
  | Ok e ->
    check Alcotest.string "v1 entry loads" "v1c" e.A.Bench.commit;
    check Alcotest.bool "v1 throughput empty" true (e.A.Bench.throughput = [])
  | Error e -> Alcotest.fail e);
  (* Diff.load autodetects the bench format and picks the last entry
     (the v1 file written just above). *)
  (match A.Diff.load path with
  | Ok [ ("k", fields) ] ->
    check
      (Alcotest.option (Alcotest.float 0.0))
      "bench as run" (Some 7.0)
      (List.assoc_opt "on_ns" fields)
  | Ok _ -> Alcotest.fail "unexpected run shape"
  | Error e -> Alcotest.fail e);
  (* A matrix mismatch must refuse to load. *)
  let oc = open_out path in
  output_string oc
    "{\"schema_version\":1,\"matrix_id\":\"other-matrix\",\"entries\":[]}";
  close_out oc;
  (match A.Bench.load_entries path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "matrix mismatch must error");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Report end-to-end                                                   *)

let test_report_on_real_trace () =
  let path = tmp_path "report_trace.jsonl" in
  let _ = run_intermittent (Obs.Jsonl_sink.create path) in
  (match A.Report.build ~trace_path:path () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.bool "no warnings on full trace" true
      (r.A.Report.warnings = []);
    check Alcotest.bool "sections present" true
      (List.length r.A.Report.sections >= 6);
    List.iter
      (fun f ->
        let body = A.Report.render f r in
        check Alcotest.bool "render non-empty" true
          (String.length body > 0))
      [ A.Report.Text; A.Report.Csv; A.Report.Markdown ]);
  Sys.remove path

let test_report_flags_truncation () =
  let path = tmp_path "truncated_trace.jsonl" in
  let ring = Obs.Ring.create ~capacity:50 in
  let _ = run_intermittent (Obs.Ring.sink ring) in
  let file_sink = Obs.Jsonl_sink.create path in
  Obs.Ring.drain_to ring file_sink;
  file_sink.Sink.close ();
  check Alcotest.bool "ring wrapped" true (Obs.Ring.dropped ring > 0);
  (match A.Report.build ~trace_path:path () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check Alcotest.bool "truncation warned" true
      (List.exists
         (fun w -> Thelpers.contains w "truncated")
         r.A.Report.warnings))
  ;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Every file reader returns Error on a directory, never raises        *)

let test_readers_reject_directory () =
  let dir = tmp_path "dir" in
  let empty = tmp_path "empty.jsonl" in
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "fleet.journal") 0o755;
  close_out (open_out empty);
  Fun.protect
    ~finally:(fun () ->
      Unix.rmdir (Filename.concat dir "fleet.journal");
      Unix.rmdir dir;
      Sys.remove empty)
    (fun () ->
      let rejects what r =
        check Alcotest.bool (what ^ " returns Error") true (Result.is_error r)
      in
      rejects "Json.parse_file" (Json.parse_file dir);
      rejects "Json.fold_lines"
        (Json.fold_lines dir ~init:() (fun () _ _ -> Ok ()));
      rejects "Journal.load" (Sweep_tune.Journal.load dir);
      rejects "Frontier.load" (Sweep_tune.Frontier.load dir);
      rejects "Trace_reader.fold"
        (A.Trace_reader.fold dir ~init:() ~f:(fun () _ -> ()));
      rejects "Flight_file.load" (A.Flight_file.load dir);
      rejects "Results_file.load" (A.Results_file.load dir);
      rejects "Metrics.load" (Obs.Metrics.load dir);
      rejects "Profile.load" (Sweep_sim.Profile.load dir);
      rejects "Spec.load" (Sweep_fleet.Spec.load dir);
      rejects "Fleet_view.load" (A.Fleet_view.load dir);
      rejects "Status_file.load" (A.Status_file.load dir);
      rejects "Diff.load" (A.Diff.load dir);
      rejects "Tune_file.load" (A.Tune_file.load dir);
      rejects "Report.build" (A.Report.build ~trace_path:dir ());
      (* The fleet runner's journal reader, behind Runner.run. *)
      let spec =
        {
          Sweep_fleet.Spec.name = "d"; devices = 1; seed = 1; bench = "sha";
          scale = 0.05; design = H.Sweep; trace = Trace.Rf_office;
          v_max = 3.5; v_min = 2.8; jitter = Sweep_fleet.Spec.no_jitter;
          arms = [ Sweep_fleet.Spec.default_arm ];
        }
      in
      rejects "Runner.run (journal)" (Sweep_fleet.Runner.run ~dir spec);
      (* A side-file that is a directory stays a warning. *)
      match A.Tune_file.load ~journal:dir empty with
      | Ok (_, [ _ ]) -> ()
      | _ -> Alcotest.fail "Tune_file.load: a journal directory is one warning")

let suite =
  [
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "jsonl trace round-trip (real run)" `Quick
      test_jsonl_trace_roundtrip_real_run;
    Alcotest.test_case "chrome spans balanced across power failure" `Quick
      test_chrome_spans_balanced_across_power_failure;
    Alcotest.test_case "region view interruption" `Quick
      test_region_view_interruption;
    Alcotest.test_case "power view recovery cases" `Quick
      test_power_view_recovery_cases;
    Alcotest.test_case "buffer view overlap/dead time" `Quick
      test_buffer_view_overlap_and_dead_time;
    Alcotest.test_case "diff threshold boundary" `Quick
      test_diff_threshold_boundary;
    Alcotest.test_case "bench history round-trip" `Quick
      test_bench_history_roundtrip;
    Alcotest.test_case "report on real trace" `Quick test_report_on_real_trace;
    Alcotest.test_case "report flags truncation" `Quick
      test_report_flags_truncation;
    Alcotest.test_case "readers reject a directory" `Quick
      test_readers_reject_directory;
  ]
