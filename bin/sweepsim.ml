(* sweepsim: run a benchmark on an architecture model, with or without
   harvested power, and report the run statistics.

     dune exec bin/sweepsim.exe -- sha
     dune exec bin/sweepsim.exe -- dijkstra -d nvp -t rfhome --cap 100e-9
     dune exec bin/sweepsim.exe -- fft --all-designs --verify
*)

open Cmdliner
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Trace = Sweep_energy.Power_trace
module Config = Sweep_machine.Config
module Mstats = Sweep_machine.Mstats
module Table = Sweep_util.Table
module C = Sweep_exp.Exp_common
module Results = Sweep_exp.Results
module Executor = Sweep_exp.Executor
module Obs = Sweep_obs

let design_assoc =
  [
    ("nvp", H.Nvp); ("wt", H.Wt); ("nvsram", H.Nvsram);
    ("nvsram-e", H.Nvsram_e); ("replay", H.Replay); ("nvmr", H.Nvmr);
    ("sweep", H.Sweep);
  ]

let trace_assoc =
  [
    ("rfoffice", Some Trace.Rf_office); ("rfhome", Some Trace.Rf_home);
    ("solar", Some Trace.Solar); ("thermal", Some Trace.Thermal);
    ("none", None);
  ]

(* One-line fatal error, exit 1 — never an uncaught backtrace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "sweepsim: %s\n" msg;
      exit 1)
    fmt

let run_one bench design power config scale verify fault profile
    heartbeat_every export attrib_out attrib_folded =
  let w = Sweep_workloads.Registry.find bench in
  let ast = Sweep_workloads.Workload.program ~scale w in
  (* Compile and build the machine outside the timed window so --profile
     measures the cycle loop itself, not AST construction. *)
  let compiled = H.compile design ast in
  let m = H.machine ~config design compiled.Sweep_compiler.Pipeline.program in
  let at =
    if attrib_out <> None || attrib_folded <> None then
      Some
        (Obs.Attrib.create
           ~len:
             (Array.length
                compiled.Sweep_compiler.Pipeline.program.Sweep_isa.Program.code))
    else None
  in
  let heartbeat =
    if heartbeat_every <= 0 then None
    else
      let observer =
        Option.map
          (fun ex _ -> Obs.Openmetrics.tick ex)
          export
      in
      Some (Obs.Heartbeat.create ?observer ~every:heartbeat_every ())
  in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let outcome = Driver.run ?fault ?heartbeat ?attrib:at m ~power in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let r = { H.design; outcome; machine = m; compiled; attrib = at } in
  if profile then begin
    (* One-shot hot-loop profile: wall time, simulated-instruction
       throughput, and GC pressure over the drive loop (compile and
       machine construction excluded).  Stderr so tables/JSON stay
       parseable. *)
    let g1 = Gc.quick_stat () in
    let o = r.H.outcome in
    let instrs = o.Driver.instructions in
    let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
    let major = g1.Gc.major_words -. g0.Gc.major_words in
    Printf.eprintf
      "profile[%s/%s]: %.3f s wall, %d instrs, %.0f instr/s\n\
      \  minor %.0f words (%.4f w/instr), major %.0f words, \
       %d minor collections, %d major collections\n"
      (H.design_name design) bench elapsed_s instrs
      (float_of_int instrs /. (if elapsed_s > 0.0 then elapsed_s else 1e-9))
      minor
      (if instrs > 0 then minor /. float_of_int instrs else 0.0)
      major
      (g1.Gc.minor_collections - g0.Gc.minor_collections)
      (g1.Gc.major_collections - g0.Gc.major_collections)
  end;
  let o = r.H.outcome in
  let st = H.mstats r in
  let design_name = H.design_name design in
  if Obs.Metrics.enabled () then
    Mstats.publish ~labels:[ ("design", design_name); ("bench", bench) ] st;
  (match at with
  | Some at ->
    let p =
      Sweep_sim.Profile.make ~design:design_name ~bench ~scale
        ~key:
          (C.key_of ~label:design_name ~design:design_name
             ~power:(C.power_key power) ~bench ~scale)
        compiled.Sweep_compiler.Pipeline.program at
    in
    Option.iter
      (fun path ->
        Sweep_sim.Profile.write_json p ~path;
        Printf.eprintf "per-PC profile written to %s\n" path)
      attrib_out;
    Option.iter
      (fun path ->
        Sweep_sim.Profile.write_folded p ~path;
        Printf.eprintf "collapsed stacks written to %s\n" path)
      attrib_folded
  | None -> ());
  let summary =
    {
      C.outcome = o;
      mstats = st;
      miss_rate = H.cache_miss_rate r;
      nvm_writes = H.nvm_writes r;
    }
  in
  Results.emit ~exp:"sweepsim"
    ~key:
      (C.key_of ~label:design_name ~design:design_name
         ~power:(C.power_key power) ~bench ~scale)
    ~design:design_name ~label:design_name ~power:(C.power_key power) ~bench
    ~scale ~elapsed_s summary;
  let ok, verified =
    if not verify then (true, "")
    else
      match H.check_against_interp r ast with
      | Ok () -> (true, "consistent")
      | Error e -> (false, "INCONSISTENT: " ^ e)
  in
  ( ok,
    [
      design_name;
      string_of_int o.Driver.instructions;
      Table.float_cell (o.Driver.on_ns /. 1e6);
      Table.float_cell (o.Driver.off_ns /. 1e6);
      string_of_int o.Driver.outages;
      string_of_int o.Driver.backups;
      Table.float_cell (Driver.total_joules o *. 1e6);
      Table.float_cell (100.0 *. H.cache_miss_rate r);
      string_of_int st.Mstats.regions;
      Table.float_cell (Mstats.parallelism_efficiency st);
      verified;
    ] )

let parse_trace_filter spec =
  match spec with
  | None -> []
  | Some spec ->
    String.split_on_char ',' spec
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match Obs.Event.category_of_name (String.lowercase_ascii s) with
           | Some c -> c
           | None ->
             Printf.eprintf
               "unknown trace category %S; available: %s\n" s
               (String.concat ", "
                  (List.map Obs.Event.category_name Obs.Event.all_categories));
             exit 2)

let main bench designs trace cap volts scale cache_size assoc buffer_entries
    jitter nvm_search verify j results_dir trace_out trace_format trace_cap
    trace_filter metrics metrics_out fault fault_nested profile
    heartbeat_every metrics_export attrib_out attrib_folded =
  try
  (match Sweep_workloads.Registry.find bench with
  | exception Not_found ->
    Printf.eprintf "unknown workload %S; available:\n  %s\n" bench
      (String.concat ", " (Sweep_workloads.Registry.names ()));
    exit 2
  | _ -> ());
  if j < 1 then die "-j must be at least 1 (got %d)" j;
  if cap <= 0.0 then die "--cap must be positive (got %g)" cap;
  if scale <= 0.0 then die "--scale must be positive (got %g)" scale;
  if cache_size < 64 then die "--cache-size must be at least one line (64)";
  let v_max, v_min = volts in
  if v_min <= 0.0 || v_max <= v_min then
    die "--v-max must exceed --v-min > 0 (got %g / %g)" v_max v_min;
  if not (Config.valid_geometry ~size:cache_size ~assoc) then
    die
      "--cache-size %d with --assoc %d is not a valid geometry (size must \
       be a positive multiple of assoc * 64)"
      cache_size assoc;
  if buffer_entries < 1 then
    die "--buffer-entries must be at least 1 (got %d)" buffer_entries;
  let jshift, jamp, jdrop, jseed = jitter in
  if jshift < 0 then die "--jitter-shift-steps must be >= 0";
  if jamp < 0 then die "--jitter-amp-permille must be >= 0";
  if jdrop < 0 || jdrop > 10000 then
    die "--jitter-drop-bp must be in [0, 10000]";
  if jseed < 0 then die "--jitter-drop-seed must be >= 0";
  let jittered = jshift <> 0 || jamp <> 1000 || jdrop <> 0 || jseed <> 0 in
  (* The canonical fleet jitter pipeline (shift, then scale, then drop),
     so a `sweepfleet report` replay line reproduces its device's power
     trace bit-for-bit. *)
  let jitterize t =
    if not jittered then t
    else
      Sweep_exp.Jobs.apply_jitter t ~shift_steps:jshift ~amp_permille:jamp
        ~drop_bp:jdrop ~drop_seed:jseed
  in
  if trace_cap < 0 then die "--trace-cap must be >= 0 (got %d)" trace_cap;
  if trace_cap > 0 && trace_out = None then
    die "--trace-cap only makes sense with --trace FILE";
  if fault_nested < 0 then die "--fault-nested must be >= 0";
  if fault_nested > 0 && fault = None then
    die "--fault-nested only makes sense with --fault N";
  if (attrib_out <> None || attrib_folded <> None) && List.length designs > 1
  then
    die
      "--attrib/--attrib-folded write one profile file: select a single \
       design with -d";
  let fault =
    match fault with
    | None -> None
    | Some n when n < 1 -> die "--fault expects an instruction index >= 1"
    | Some n -> Some (Sweep_sim.Fault.at_instruction ~nested:fault_nested n)
  in
  Results.set_dir results_dir;
  if metrics || Option.is_some metrics_out || Option.is_some metrics_export
  then Obs.Metrics.set_enabled true;
  let export =
    Option.map (fun path -> Obs.Openmetrics.exporter ~path ()) metrics_export
  in
  (* Heartbeats default on when the exporter needs a pulse to flush to,
     off otherwise; --heartbeat-every overrides either way. *)
  let heartbeat_every =
    match heartbeat_every with
    | Some n -> n
    | None -> if export <> None then Obs.Heartbeat.default_every else 0
  in
  if heartbeat_every < 0 then die "--heartbeat-every must be >= 0";
  let filter = parse_trace_filter trace_filter in
  let power =
    match trace with
    | `Kind None ->
      if jittered then die "--jitter-* flags need a power trace (-t)";
      Driver.Unlimited
    | `Kind (Some kind) ->
      Driver.harvested ~v_max ~v_min ~trace:(jitterize (Trace.make kind))
        ~farads:cap ()
    | `Csv path -> (
      (* A measured trace fed back in: any load problem (missing file,
         malformed CSV) is a clean one-liner, not a backtrace. *)
      match Trace.load_csv path with
      | t -> Driver.harvested ~v_max ~v_min ~trace:(jitterize t) ~farads:cap ()
      | exception Sys_error msg -> die "cannot read power trace: %s" msg
      | exception Failure msg ->
        die "cannot parse power trace %s: %s" path msg)
  in
  let config =
    let c =
      Config.with_buffer_entries
        (Config.with_geometry Config.default ~size:cache_size ~assoc)
        buffer_entries
    in
    if nvm_search then Config.with_search c Config.Nvm_search else c
  in
  let t =
    Table.create
      [
        "design"; "instrs"; "on ms"; "off ms"; "outages"; "backups";
        "energy uJ"; "miss %"; "regions"; "eff %"; "check";
      ]
  in
  (* Tracing puts every design on the same simulated-ns timeline, so the
     runs must be sequential to keep the trace legible. *)
  let j =
    match trace_out with
    | Some _ when j > 1 ->
      Printf.eprintf
        "sweepsim: warning: --trace forces sequential execution — \
         ignoring -j %d and running with 1 worker\n"
        j;
      1
    | _ -> j
  in
  if Option.is_some trace_out && List.length designs > 1 then
    Printf.eprintf
      "sweepsim: tracing %d designs onto one timeline; pass -d to isolate \
       one\n"
      (List.length designs);
  let run_all () =
    Executor.map ~workers:j
      (fun d ->
        run_one bench d power config scale verify fault profile
          heartbeat_every export attrib_out attrib_folded)
      designs
  in
  let rows =
    match trace_out with
    | None -> run_all ()
    | Some path ->
      let file_sink =
        match trace_format with
        | `Chrome -> Obs.Chrome_trace.create path
        | `Jsonl -> Obs.Jsonl_sink.create path
      in
      let counted, count = Obs.Sink.counting () in
      let with_filter s =
        match filter with [] -> s | cats -> Obs.Sink.filtered ~cats s
      in
      let rows, dropped =
        if trace_cap > 0 then begin
          (* Bounded capture: keep the last N events in a ring, then
             replay the retained window (with its Dropped marker) into
             the file. *)
          let ring = Obs.Ring.create ~capacity:trace_cap in
          let rows =
            Obs.Sink.with_sink
              (with_filter (Obs.Sink.tee counted (Obs.Ring.sink ring)))
              run_all
          in
          Obs.Ring.drain_to ring file_sink;
          file_sink.Obs.Sink.close ();
          (rows, Obs.Ring.dropped ring)
        end
        else
          ( Obs.Sink.with_sink (with_filter (Obs.Sink.tee counted file_sink))
              run_all,
            0 )
      in
      let viewer =
        match trace_format with
        | `Chrome -> " (load in ui.perfetto.dev)"
        | `Jsonl -> " (analyze with sweeptrace report)"
      in
      if dropped > 0 then
        Printf.eprintf
          "trace written to %s%s: TRUNCATED — kept last %d of %d events \
           (%d dropped by --trace-cap)\n"
          path viewer
          (count () - dropped)
          (count ()) dropped
      else
        Printf.eprintf "trace written to %s%s: %d events\n" path viewer
          (count ());
      rows
  in
  List.iter (fun (_, row) -> Table.add_row t row) rows;
  Table.print t;
  if metrics then
    print_string (Obs.Metrics.render (Obs.Metrics.snapshot ()));
  (match metrics_out with
  | None -> ()
  | Some path ->
    Obs.Metrics.write_json path (Obs.Metrics.snapshot ());
    Printf.eprintf "metrics snapshot written to %s\n" path);
  (match (export, metrics_export) with
  | Some ex, Some path ->
    Obs.Openmetrics.flush ex;
    Printf.eprintf "OpenMetrics export written to %s\n" path
  | _ -> ());
  (* --verify regressions must fail the process so CI can catch them. *)
  if List.for_all fst rows then 0 else 1
  with
  | Sys_error msg ->
    (* Unwritable --trace / --results-dir / --metrics-out and friends:
       one line on stderr, exit 1, no backtrace. *)
    Printf.eprintf "sweepsim: %s\n" msg;
    1
  (* A simulation that cannot finish — region formation rejecting the
     program, a region outgrowing the persist buffer, a stalled run —
     is a failed job: one line, exit 1, as for sweepexp. *)
  | Sweepcache_core.Persist_buffer.Overflow ->
    Printf.eprintf
      "sweepsim: simulation failed: persist buffer overflow (regions are \
       compiled for the default %d-store threshold, more than \
       --buffer-entries %d holds)\n"
      Sweep_compiler.Pipeline.default_options.store_threshold buffer_entries;
    1
  | Driver.Stagnation msg | Failure msg | Invalid_argument msg ->
    Printf.eprintf "sweepsim: simulation failed: %s\n" msg;
    1

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
         ~doc:"Benchmark name (see --list in sweepcc, e.g. sha, dijkstra).")

let designs_arg =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) design_assoc with
    | Some d -> Ok [ d ]
    | None -> Error (`Msg ("unknown design " ^ s))
  in
  let design_conv =
    Arg.conv (parse, fun fmt ds ->
        Format.pp_print_string fmt
          (String.concat "," (List.map H.design_name ds)))
  in
  Arg.(value & opt design_conv [ H.Sweep ]
       & info [ "d"; "design" ] ~docv:"DESIGN"
           ~doc:"Architecture: nvp, wt, nvsram, nvsram-e, replay, nvmr, sweep.")

let all_designs_arg =
  Arg.(value & flag
       & info [ "all-designs" ] ~doc:"Run every architecture model.")

let trace_arg =
  let trace_conv =
    Arg.conv
      ( (fun s ->
          match List.assoc_opt (String.lowercase_ascii s) trace_assoc with
          | Some t -> Ok (`Kind t)
          | None ->
            (* Anything that looks like a file is a CSV trace; anything
               else is a typo'd kind name. *)
            if Filename.check_suffix s ".csv" || Sys.file_exists s then
              Ok (`Csv s)
            else
              Error
                (`Msg
                  ("unknown trace " ^ s
                 ^ " (rfoffice, rfhome, solar, thermal, none, or a .csv \
                    file)"))),
        fun fmt t ->
          Format.pp_print_string fmt
            (match t with
            | `Kind (Some k) -> Trace.kind_name k
            | `Kind None -> "none"
            | `Csv p -> p) )
  in
  Arg.(value & opt trace_conv (`Kind (Some Trace.Rf_office))
       & info [ "t"; "power-trace" ] ~docv:"TRACE"
           ~doc:"Power trace: rfoffice, rfhome, solar, thermal, none \
                 (continuous power), or a CSV file saved by \
                 $(b,Power_trace.save_csv).")

let cap_arg =
  Arg.(value & opt float 470e-9
       & info [ "cap" ] ~docv:"FARADS" ~doc:"Capacitor size (farads).")

let volts_term =
  let v_max =
    Arg.(value & opt float 3.5
         & info [ "v-max" ] ~docv:"VOLTS"
             ~doc:"Capacitor voltage at which execution starts (Table 1: \
                   3.5 V).")
  in
  let v_min =
    Arg.(value & opt float 2.8
         & info [ "v-min" ] ~docv:"VOLTS"
             ~doc:"Brown-out voltage at which execution dies (Table 1: \
                   2.8 V).")
  in
  Term.(const (fun mx mn -> (mx, mn)) $ v_max $ v_min)

let scale_arg =
  Arg.(value & opt float 1.0
       & info [ "scale" ] ~docv:"S" ~doc:"Workload input scale factor.")

let cache_arg =
  Arg.(value & opt int 4096
       & info [ "cache-size" ] ~docv:"BYTES" ~doc:"Data-cache size in bytes.")

let assoc_arg =
  Arg.(value & opt int 2
       & info [ "assoc" ] ~docv:"WAYS" ~doc:"Data-cache associativity.")

let buffer_entries_arg =
  Arg.(value & opt int 64
       & info [ "buffer-entries" ] ~docv:"N"
           ~doc:"Persist-buffer capacity in entries.")

(* The four knobs of the fleet's per-device power perturbation.  The
   defaults are the identity transform; `sweepfleet report` prints these
   flags per tail device so the device replays exactly. *)
let jitter_term =
  let shift =
    Arg.(value & opt int 0
         & info [ "jitter-shift-steps" ] ~docv:"N"
             ~doc:"Rotate the power trace by N 100-microsecond steps \
                   before simulating (fleet device replay).")
  in
  let amp =
    Arg.(value & opt int 1000
         & info [ "jitter-amp-permille" ] ~docv:"N"
             ~doc:"Scale every power sample by N/1000 (1000 = unity).")
  in
  let drop =
    Arg.(value & opt int 0
         & info [ "jitter-drop-bp" ] ~docv:"N"
             ~doc:"Zero out N basis points (N/10000) of samples, chosen \
                   by --jitter-drop-seed.")
  in
  let seed =
    Arg.(value & opt int 0
         & info [ "jitter-drop-seed" ] ~docv:"N"
             ~doc:"Seed for the --jitter-drop-bp sample choice.")
  in
  Term.(const (fun a b c d -> (a, b, c, d)) $ shift $ amp $ drop $ seed)

let nvm_search_arg =
  Arg.(value & flag
       & info [ "nvm-search" ]
           ~doc:"Disable the empty-bit: always search the persist buffers.")

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Check the final NVM image against the reference \
                 interpreter.  Exits 1 if any design is INCONSISTENT.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run the selected designs on N worker domains.")

let results_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "results-dir" ] ~docv:"DIR"
           ~doc:"Append one JSON line per design run to DIR/sweepsim.jsonl.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event / Perfetto JSON timeline of the \
                 run to FILE (open it at ui.perfetto.dev).  Forces -j 1.")

let trace_format_arg =
  let fmt_conv =
    Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "chrome" | "perfetto" -> Ok `Chrome
          | "jsonl" -> Ok `Jsonl
          | _ -> Error (`Msg ("unknown trace format " ^ s))),
        fun fmt f ->
          Format.pp_print_string fmt
            (match f with `Chrome -> "chrome" | `Jsonl -> "jsonl") )
  in
  Arg.(value & opt fmt_conv `Chrome
       & info [ "trace-format" ] ~docv:"FMT"
           ~doc:"Trace file format: $(b,chrome) (Perfetto timeline) or \
                 $(b,jsonl) (raw event log, the input of sweeptrace).")

let trace_cap_arg =
  Arg.(value & opt int 0
       & info [ "trace-cap" ] ~docv:"N"
           ~doc:"Keep only the last N trace events (0 = unbounded).  A \
                 truncated trace starts with a dropped-events marker and \
                 the run summary reports the dropped count.")

let trace_filter_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-filter" ] ~docv:"CATS"
           ~doc:"Comma-separated event categories to keep in the trace: \
                 region, buffer, cache, power, exec, job.  Default: all.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Enable the metrics registry and print it after the table \
                 (counters labelled by design and bench).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Enable the metrics registry and write a JSON snapshot to \
                 FILE after the run (readable by sweeptrace).")

let fault_arg =
  Arg.(value & opt (some int) None
       & info [ "fault" ] ~docv:"N"
           ~doc:"Inject an adversarial power failure after the N-th \
                 dynamic instruction (on top of whatever the power trace \
                 does).  The crash shows up as a fault event in --trace \
                 output and in sweeptrace report.")

let fault_nested_arg =
  Arg.(value & opt int 0
       & info [ "fault-nested" ] ~docv:"K"
           ~doc:"With --fault: re-crash K times during recovery itself \
                 (nested-crash coverage).")

let heartbeat_every_arg =
  Arg.(value & opt (some int) None
       & info [ "heartbeat-every" ] ~docv:"N"
           ~doc:"Emit an in-run heartbeat event every N simulated \
                 instructions (visible in --trace output; default: \
                 1000000 when --metrics-export is given, otherwise \
                 disabled; 0 disables).")

let metrics_export_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-export" ] ~docv:"FILE"
           ~doc:"Enable the metrics registry and periodically re-export \
                 it to FILE in OpenMetrics (Prometheus text) format \
                 (refreshed on every heartbeat, final flush at exit).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print a one-shot hot-loop profile per run to stderr: wall \
                 time, simulated-instruction throughput, and GC pressure \
                 (minor/major words and collections).")

let attrib_arg =
  Arg.(value & opt (some string) None
       & info [ "attrib" ] ~docv:"FILE"
           ~doc:"Arm per-PC attribution and write the schema-versioned \
                 profile table (simulated time, energy split, NVM wear, \
                 cache misses, stalls, re-executed vs. forward work per \
                 program counter) to FILE as JSON.  Requires a single \
                 design.  Analyze with $(b,sweeptrace profile).")

let attrib_folded_arg =
  Arg.(value & opt (some string) None
       & info [ "attrib-folded" ] ~docv:"FILE"
           ~doc:"With or without --attrib: write Brendan Gregg collapsed \
                 stacks (func;label+off;op weight, weighted by simulated \
                 ns) to FILE for flamegraph tooling.")

let cmd =
  let doc = "simulate a workload on an intermittent-computing architecture" in
  let term =
    Term.(
      const (fun bench design all trace cap volts scale cache assoc
                 buffer_entries jitter nvm_search verify j results_dir
                 trace_out trace_format trace_cap trace_filter metrics
                 metrics_out fault fault_nested profile heartbeat_every
                 metrics_export attrib_out attrib_folded ->
          let designs = if all then H.all_designs else design in
          main bench designs trace cap volts scale cache assoc buffer_entries
            jitter nvm_search verify j results_dir trace_out trace_format
            trace_cap trace_filter metrics metrics_out fault fault_nested
            profile heartbeat_every metrics_export attrib_out attrib_folded)
      $ bench_arg $ designs_arg $ all_designs_arg $ trace_arg $ cap_arg
      $ volts_term $ scale_arg $ cache_arg $ assoc_arg $ buffer_entries_arg
      $ jitter_term $ nvm_search_arg $ verify_arg $ jobs_arg
      $ results_dir_arg $ trace_out_arg $ trace_format_arg $ trace_cap_arg
      $ trace_filter_arg $ metrics_arg $ metrics_out_arg $ fault_arg
      $ fault_nested_arg $ profile_arg $ heartbeat_every_arg
      $ metrics_export_arg $ attrib_arg $ attrib_folded_arg)
  in
  Cmd.v (Cmd.info "sweepsim" ~doc) term

let () = exit (Cmd.eval' cmd)
