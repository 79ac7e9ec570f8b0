(* Observability-layer tests: sinks (null / ring / counting / filtered /
   JSONL / Chrome trace), the metrics registry, and the guarantee the
   rest of the stack relies on — identical event streams regardless of
   executor worker count. *)
module Obs = Sweep_obs
module Ev = Sweep_obs.Event
module Sink = Sweep_obs.Sink
module Ring = Sweep_obs.Ring
module Metrics = Sweep_obs.Metrics
module C = Sweep_exp.Exp_common
module Jobs = Sweep_exp.Jobs
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module H = Sweep_sim.Harness

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Minimal JSON validator (no external JSON dependency): accepts the
   grammar the sinks emit and fails on anything malformed. *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance (); go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ -> advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let digits () =
      let any = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' -> any := true; advance (); go ()
        | _ -> ()
      in
      go ();
      if not !any then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' -> advance (); digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail ("expected " ^ w)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sweep_obs_test_%d_%s" (Unix.getpid ()) name)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let test_null_sink_off () =
  Alcotest.(check bool) "off by default" false (Sink.on ());
  (* Emitting with no sink installed must be harmless. *)
  Sink.emit ~ns:0.0 Ev.Halt;
  Sink.flush ()

let test_with_sink_scoping () =
  let sink, count = Sink.counting () in
  Sink.with_sink sink (fun () ->
      Alcotest.(check bool) "on inside" true (Sink.on ());
      Sink.emit ~ns:1.0 Ev.Buffer_bypass;
      Sink.emit ~ns:2.0 (Ev.Voltage { volts = 3.1 }));
  Alcotest.(check bool) "off after" false (Sink.on ());
  check Alcotest.int "both counted" 2 (count ());
  (* with_sink clears even when the body raises. *)
  (try
     Sink.with_sink (fst (Sink.counting ())) (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "off after exception" false (Sink.on ())

let test_ring_sink () =
  let ring = Ring.create ~capacity:3 in
  let sink = Ring.sink ring in
  for i = 1 to 5 do
    sink.Sink.write ~ns:(float_of_int i) (Ev.Reboot { outage = i })
  done;
  check Alcotest.int "total" 5 (Ring.total ring);
  check Alcotest.int "length capped" 3 (Ring.length ring);
  check Alcotest.int "dropped" 2 (Ring.dropped ring);
  let kept = List.map (fun e -> e.Ring.event) (Ring.to_list ring) in
  check
    Alcotest.(list int)
    "oldest-first, newest kept" [ 3; 4; 5 ]
    (List.map (function Ev.Reboot { outage } -> outage | _ -> -1) kept);
  Ring.clear ring;
  check Alcotest.int "cleared" 0 (Ring.length ring);
  check Alcotest.int "clear resets total" 0 (Ring.total ring)

let test_filtered_sink () =
  let ring = Ring.create ~capacity:16 in
  let sink = Sink.filtered ~cats:[ Ev.Power ] (Ring.sink ring) in
  sink.Sink.write ~ns:0.0 (Ev.Power_down { volts = 2.8 });
  sink.Sink.write ~ns:1.0 Ev.Buffer_bypass;
  sink.Sink.write ~ns:2.0 (Ev.Reboot { outage = 1 });
  check Alcotest.int "only power kept" 2 (Ring.length ring)

let test_tee_sink () =
  let a, ca = Sink.counting () in
  let b, cb = Sink.counting () in
  let t = Sink.tee a b in
  t.Sink.write ~ns:0.0 Ev.Halt;
  t.Sink.write ~ns:1.0 Ev.Halt;
  check Alcotest.int "left" 2 (ca ());
  check Alcotest.int "right" 2 (cb ())

let test_jsonl_sink () =
  let path = tmp_path "events.jsonl" in
  let sink = Obs.Jsonl_sink.create path in
  Sink.with_sink sink (fun () ->
      Sink.emit ~ns:1.5 (Ev.Region_begin { seq = 1; buf = 0 });
      Sink.emit ~ns:2.5 (Ev.Job_done { key = "a\"b\\c"; elapsed_s = 0.25 });
      Sink.emit ~ns:3.5 (Ev.Backup { ok = false; joules = 1e-6 }));
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  check Alcotest.int "three lines" 3 (List.length lines);
  List.iter validate_json lines;
  Alcotest.(check bool) "name present" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 1 = "{")

let test_chrome_trace_valid_json () =
  let path = tmp_path "trace.json" in
  let sink = Obs.Chrome_trace.create path in
  Sink.with_sink sink (fun () ->
      Sink.emit ~ns:0.0 (Ev.Region_begin { seq = 1; buf = 0 });
      Sink.emit ~ns:50.0 (Ev.Cache_miss { addr = 4096; write = true });
      Sink.emit ~ns:80.0 (Ev.Waw_stall { seq = 1; ns = 12.0 });
      Sink.emit ~ns:100.0 (Ev.Region_end { seq = 1; buf = 0 });
      Sink.emit ~ns:100.0
        (Ev.Buf_phase
           { buf = 0; seq = 1; phase = Ev.Fill; start_ns = 0.0; end_ns = 100.0 });
      Sink.emit ~ns:100.0
        (Ev.Buf_phase
           {
             buf = 0;
             seq = 1;
             phase = Ev.Flush;
             start_ns = 100.0;
             end_ns = 140.0;
           });
      Sink.emit ~ns:150.0 (Ev.Power_down { volts = 2.79 });
      Sink.emit ~ns:5000.0 (Ev.Reboot { outage = 1 });
      Sink.emit ~ns:5000.0 (Ev.Voltage { volts = 3.3 });
      Sink.emit ~ns:5100.0 (Ev.Job_start { key = "k" });
      Sink.emit ~ns:5200.0 (Ev.Job_done { key = "k"; elapsed_s = 0.1 });
      Sink.emit ~ns:6000.0 Ev.Halt);
  let body = read_file path in
  Sys.remove path;
  validate_json body;
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "region span" true (contains "region 1");
  Alcotest.(check bool) "buffer phase span" true (contains "fill");
  Alcotest.(check bool) "off span" true (contains "\"off\"");
  Alcotest.(check bool) "voltage counter" true (contains "capacitor V")

let test_chrome_trace_filter () =
  let path = tmp_path "trace_filtered.json" in
  let sink = Obs.Chrome_trace.create ~filter:[ Ev.Power ] path in
  Sink.with_sink sink (fun () ->
      Sink.emit ~ns:0.0 (Ev.Region_begin { seq = 1; buf = 0 });
      Sink.emit ~ns:1.0 (Ev.Power_down { volts = 2.8 }));
  let body = read_file path in
  Sys.remove path;
  validate_json body;
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "power kept" true (contains "\"off\"");
  Alcotest.(check bool) "region dropped" false (contains "region 1")

let test_event_category_names () =
  List.iter
    (fun c ->
      check
        (Alcotest.option
           (Alcotest.testable
              (fun fmt c -> Format.pp_print_string fmt (Ev.category_name c))
              ( = )))
        "roundtrip" (Some c)
        (Ev.category_of_name (Ev.category_name c)))
    Ev.all_categories;
  Alcotest.(check bool) "unknown rejected" true
    (Ev.category_of_name "nonsense" = None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_counter_gauge () =
  Metrics.reset ();
  let c = Metrics.counter "t.count" in
  Metrics.inc c;
  Metrics.add c 4;
  check Alcotest.int "counter" 5 (Metrics.counter_value c);
  (* Same name returns the same instrument. *)
  Metrics.inc (Metrics.counter "t.count");
  check Alcotest.int "shared handle" 6 (Metrics.counter_value c);
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.0;
  Metrics.set_max g 1.0;
  check (Alcotest.float 0.0) "set_max keeps high water" 2.0
    (Metrics.gauge_value g);
  Metrics.set_max g 7.5;
  check (Alcotest.float 0.0) "set_max raises" 7.5 (Metrics.gauge_value g)

let test_metrics_labels_and_mismatch () =
  Metrics.reset ();
  let a = Metrics.counter ~labels:[ ("b", "2"); ("a", "1") ] "t.lbl" in
  let b = Metrics.counter ~labels:[ ("a", "1"); ("b", "2") ] "t.lbl" in
  Metrics.inc a;
  Metrics.inc b;
  (* Label order is canonicalised, so both handles hit one series. *)
  check Alcotest.int "canonical labels" 2 (Metrics.counter_value a);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: t.lbl{a=1,b=2} is not a gauge")
    (fun () -> ignore (Metrics.gauge ~labels:[ ("a", "1"); ("b", "2") ] "t.lbl"))

let test_metrics_histogram_snapshot_diff () =
  Metrics.reset ();
  let h = Metrics.histogram "t.hist" ~buckets:[| 1.0; 10.0 |] in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 100.0;
  let before = Metrics.snapshot () in
  Metrics.observe h 0.25;
  let after = Metrics.snapshot () in
  let d = Metrics.diff ~before ~after in
  (match List.assoc_opt "t.hist" d with
  | Some (Metrics.Histo { count; sum; buckets }) ->
    check Alcotest.int "diff count" 1 count;
    check (Alcotest.float 1e-9) "diff sum" 0.25 sum;
    (match buckets with
    | (b1, n1) :: _ ->
      check (Alcotest.float 0.0) "first bound" 1.0 b1;
      check Alcotest.int "first bucket" 1 n1
    | [] -> Alcotest.fail "no buckets")
  | _ -> Alcotest.fail "histogram missing from diff");
  (* Reset zeroes values but keeps the registration alive. *)
  Metrics.reset ();
  Metrics.observe h 2.0;
  match List.assoc_opt "t.hist" (Metrics.snapshot ()) with
  | Some (Metrics.Histo { count; _ }) -> check Alcotest.int "post-reset" 1 count
  | _ -> Alcotest.fail "histogram lost by reset"

let test_metrics_disabled_guard () =
  Metrics.set_enabled false;
  Alcotest.(check bool) "disabled by default" false (Metrics.enabled ());
  Metrics.set_enabled true;
  Alcotest.(check bool) "enabled" true (Metrics.enabled ());
  Metrics.set_enabled false

let test_mstats_publish () =
  Metrics.reset ();
  let st = Sweep_machine.Mstats.create () in
  st.Sweep_machine.Mstats.instructions <- 42;
  st.Sweep_machine.Mstats.buffer_peak <- 7;
  Sweep_machine.Mstats.publish ~labels:[ ("design", "test") ] st;
  check Alcotest.int "published instr" 42
    (Metrics.counter_value
       (Metrics.counter ~labels:[ ("design", "test") ] "sim.instructions"));
  check (Alcotest.float 0.0) "published peak" 7.0
    (Metrics.gauge_value
       (Metrics.gauge ~labels:[ ("design", "test") ] "sim.buffer_peak"))

(* ------------------------------------------------------------------ *)
(* Worker-count independence: the same job matrix emits the same number
   of events at -j 1 and -j 4 (the simulation stream is per-job
   deterministic; only interleaving may differ). *)

let test_event_counts_j1_equals_j4 () =
  let matrix () =
    Jobs.matrix ~exp:"t_obs" ~scale:0.05
      [ C.setting H.Nvp; C.sweep_empty_bit ]
      [ "sha"; "dijkstra" ]
  in
  let count workers =
    Results.clear ();
    let sink, count = Sink.counting () in
    Sink.with_sink sink (fun () -> Executor.execute ~workers (matrix ()));
    count ()
  in
  let c1 = count 1 in
  let c4 = count 4 in
  Alcotest.(check bool) "events emitted" true (c1 > 0);
  check Alcotest.int "j1 = j4 event count" c1 c4;
  Results.clear ()

(* ------------------------------------------------------------------ *)
(* Results schema (v2): schema_version + ISO-8601 ts on every line.    *)

let test_results_schema_v2 () =
  let summary =
    {
      C.outcome =
        {
          Sweep_sim.Driver.completed = true;
          on_ns = 1.0;
          off_ns = 0.0;
          outages = 0;
          deaths = 0;
          backups = 0;
          failed_backups = 0;
          compute_joules = 0.0;
          backup_joules = 0.0;
          restore_joules = 0.0;
          quiescent_joules = 0.0;
          instructions = 1;
          injected_faults = 0;
        };
      mstats = Sweep_machine.Mstats.create ();
      miss_rate = 0.0;
      nvm_writes = 0;
    }
  in
  let line =
    Results.json_line ~ts:0.0 ~exp:"e" ~key:"k" ~design:"d" ~label:"l"
      ~power:"p" ~bench:"b" ~scale:1.0 ~elapsed_s:0.0 summary
  in
  validate_json line;
  let prefix = "{\"schema_version\":2,\"ts\":\"1970-01-01T00:00:00Z\"" in
  check Alcotest.string "v2 prefix" prefix
    (String.sub line 0 (String.length prefix));
  check Alcotest.string "epoch render" "2025-08-05T00:00:00Z"
    (Results.iso8601 1754352000.0)

(* ------------------------------------------------------------------ *)
(* Ring drain and event round-trip parsing.                            *)

let test_ring_drain_to_marks_truncation () =
  let ring = Ring.create ~capacity:3 in
  let sink = Ring.sink ring in
  for i = 1 to 5 do
    sink.Sink.write ~ns:(float_of_int i) (Ev.Reboot { outage = i })
  done;
  let drained = Ring.create ~capacity:16 in
  Ring.drain_to ring (Ring.sink drained);
  let events = List.map (fun e -> e.Ring.event) (Ring.to_list drained) in
  check Alcotest.int "dropped marker + retained window" 4 (List.length events);
  (match events with
  | Ev.Dropped { count } :: rest ->
    check Alcotest.int "dropped count" 2 count;
    check
      Alcotest.(list int)
      "window replayed oldest-first" [ 3; 4; 5 ]
      (List.map (function Ev.Reboot { outage } -> outage | _ -> -1) rest)
  | _ -> Alcotest.fail "first drained event must be Dropped");
  (* No wrap -> no marker. *)
  let small = Ring.create ~capacity:8 in
  (Ring.sink small).Sink.write ~ns:1.0 Ev.Halt;
  let out = Ring.create ~capacity:8 in
  Ring.drain_to small (Ring.sink out);
  check Alcotest.int "no marker when nothing dropped" 1 (Ring.length out)

let test_event_of_parts_roundtrip () =
  (* volts is rendered %.4f: use representable values. *)
  let events =
    [
      Ev.Region_begin { seq = 3; buf = 1 };
      Ev.Region_end { seq = 3; buf = 1 };
      Ev.Buf_phase
        { buf = 2; seq = 9; phase = Ev.Drain; start_ns = 10.0; end_ns = 32.5 };
      Ev.Buf_wait { buf = 0; ns = 12.0 };
      Ev.Waw_stall { seq = 4; ns = 7.25 };
      Ev.Buffer_search { scanned = 5; hit = true };
      Ev.Buffer_bypass;
      Ev.Cache_miss { addr = 4096; write = false };
      Ev.Cache_writeback { base = 64 };
      Ev.Power_down { volts = 2.8125 };
      Ev.Death { volts = 2.8125 };
      Ev.Reboot { outage = 7 };
      Ev.Backup { ok = false; joules = 1.5e-7 };
      Ev.Backup_lines { lines = 12 };
      Ev.Restore { joules = 2.5e-8 };
      Ev.Reexec { discarded = 166 };
      Ev.Replay { stores = 42 };
      Ev.Voltage { volts = 3.25 };
      Ev.Halt;
      Ev.Dropped { count = 99 };
      Ev.Job_start { key = "a|b" };
      Ev.Job_done { key = "a|b"; elapsed_s = 0.25 };
      Ev.Job_failed { key = "a|b"; error = "Driver.Stagnation(\"x\")" };
      Ev.Fault_inject { trigger = "instr"; detail = "instr 812 +1 nested" };
      Ev.Fault_torn { base = 4096; words = 7 };
      Ev.Fault_stuck { bit = 1; buf = 2; seq = 14 };
      Ev.Mark { name = "redo seq 3 (2 lines)"; cat = Ev.Buffer };
      Ev.Tune_round { strategy = "halving"; round = 2; points = 120; benches = 1 };
      Ev.Tune_eval { key = "tune:a|b"; cached = true };
      Ev.Tune_eval { key = "tune:a|b"; cached = false };
      Ev.Tune_frontier { size = 11; evals = 200 };
      Ev.Heartbeat
        { every = 1_000_000; instructions = 3_000_000; reboots = 4;
          nvm_writes = 512 };
      Ev.Tune_prune { key = "tune:a|b"; budget_ns = 1.25e9 };
      Ev.Job_retry { key = "a|b"; attempt = 2 };
      Ev.Cache_hit { key = "a|b" };
      Ev.Worker_spawn { worker = 3; pid = 4321 };
      Ev.Worker_dead { worker = 3; pid = 4321; reason = "heartbeat timeout" };
    ]
  in
  List.iter
    (fun ev ->
      let line = Obs.Jsonl_sink.render_line ~ns:123.0 ev in
      validate_json line;
      match Sweep_analyze.Trace_reader.parse_line line with
      | None -> Alcotest.fail ("unparseable: " ^ line)
      | Some { Sweep_analyze.Trace_reader.ns; event } ->
        check (Alcotest.float 0.0) "ns" 123.0 ns;
        if event <> ev then Alcotest.fail ("round-trip changed: " ^ line))
    events;
  (* Unknown tags and ill-typed payloads must not masquerade as events. *)
  check Alcotest.bool "unknown tag" true
    (Ev.of_parts ~tag:"warp_drive" ~name:"x" ~cat:"exec" ~args:[] = None);
  check Alcotest.bool "missing field" true
    (Ev.of_parts ~tag:"reboot" ~name:"reboot" ~cat:"power" ~args:[] = None);
  check Alcotest.bool "ill-typed field" true
    (Ev.of_parts ~tag:"reboot" ~name:"reboot" ~cat:"power"
       ~args:[ ("outage", Sweep_util.Json.Str "seven") ]
    = None)

(* Fault events must survive a capped ring: a --trace-cap window that
   happens to scroll past the crash would otherwise swallow the one
   event that explains the trace. *)
let test_ring_pins_fault_events () =
  let ring = Ring.create ~capacity:3 in
  let sink = Ring.sink ring in
  sink.Sink.write ~ns:1.0
    (Ev.Fault_inject { trigger = "instr"; detail = "instr 1" });
  for i = 2 to 8 do
    sink.Sink.write ~ns:(float_of_int i) (Ev.Reboot { outage = i })
  done;
  let drained = Ring.create ~capacity:16 in
  Ring.drain_to ring (Ring.sink drained);
  let events = List.map (fun e -> e.Ring.event) (Ring.to_list drained) in
  (match events with
  | Ev.Dropped { count } :: Ev.Fault_inject _ :: rest ->
    (* 5 events were evicted: 4 reboots lost + 1 fault preserved. *)
    check Alcotest.int "lost excludes pinned" 4 count;
    check Alcotest.int "window intact" 3 (List.length rest)
  | _ ->
    Alcotest.fail "expected Dropped marker then the pinned fault event");
  Ring.clear ring;
  check Alcotest.int "clear drops pinned" 0
    (List.length (Ring.pinned ring))

let test_sink_spy () =
  let seen = ref [] in
  check Alcotest.bool "off before spy" false (Sink.on ());
  let detach = Sink.spy (fun ~ns:_ ev -> seen := ev :: !seen) in
  check Alcotest.bool "spy turns sink on" true (Sink.on ());
  Sink.emit ~ns:1.0 Ev.Halt;
  Sink.emit ~ns:2.0 (Ev.Reboot { outage = 1 });
  detach ();
  Sink.emit ~ns:3.0 Ev.Halt;
  check Alcotest.bool "off after detach" false (Sink.on ());
  check Alcotest.int "observed while attached" 2 (List.length !seen)

(* The --metrics-out reader inverts the writer, the histogram's +inf
   overflow bucket included. *)
let test_metrics_json_roundtrip () =
  let snap =
    [
      ("a.count", Metrics.Count 42);
      ("b.gauge{design=sweep}", Metrics.Value 0.1);
      ( "c.hist",
        Metrics.Histo
          { count = 3; sum = 12.5;
            buckets = [ (1.0, 1); (10.0, 1); (infinity, 1) ] } );
    ]
  in
  let read s = Result.bind (Sweep_util.Json.parse s) Metrics.of_json in
  Alcotest.(check bool) "of_json inverts render_json" true
    (read (Metrics.render_json snap) = Ok snap);
  Alcotest.(check bool) "another schema_version is an error" true
    (Result.is_error (read {|{"schema_version":2,"metrics":{}}|}))

let suite =
  [
    Alcotest.test_case "null sink off" `Quick test_null_sink_off;
    Alcotest.test_case "with_sink scoping" `Quick test_with_sink_scoping;
    Alcotest.test_case "ring sink" `Quick test_ring_sink;
    Alcotest.test_case "filtered sink" `Quick test_filtered_sink;
    Alcotest.test_case "tee sink" `Quick test_tee_sink;
    Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
    Alcotest.test_case "chrome trace valid json" `Quick
      test_chrome_trace_valid_json;
    Alcotest.test_case "chrome trace filter" `Quick test_chrome_trace_filter;
    Alcotest.test_case "category names" `Quick test_event_category_names;
    Alcotest.test_case "metrics counter/gauge" `Quick
      test_metrics_counter_gauge;
    Alcotest.test_case "metrics labels" `Quick test_metrics_labels_and_mismatch;
    Alcotest.test_case "metrics histogram/diff" `Quick
      test_metrics_histogram_snapshot_diff;
    Alcotest.test_case "metrics enable guard" `Quick
      test_metrics_disabled_guard;
    Alcotest.test_case "mstats publish" `Quick test_mstats_publish;
    Alcotest.test_case "event counts j1=j4" `Quick
      test_event_counts_j1_equals_j4;
    Alcotest.test_case "results schema v2" `Quick test_results_schema_v2;
    Alcotest.test_case "ring drain_to truncation marker" `Quick
      test_ring_drain_to_marks_truncation;
    Alcotest.test_case "event of_parts round-trip" `Quick
      test_event_of_parts_roundtrip;
    Alcotest.test_case "ring pins fault events" `Quick
      test_ring_pins_fault_events;
    Alcotest.test_case "sink spy" `Quick test_sink_spy;
    Alcotest.test_case "metrics json round-trip" `Quick
      test_metrics_json_roundtrip;
  ]
