(* Integration tests of the intermittent-execution driver, including the
   central crash-consistency property: under arbitrary harvested-power
   failure patterns, every design's final NVM image equals the reference
   interpreter's. *)
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Fault = Sweep_sim.Fault
module Trace = Sweep_energy.Power_trace
module Sink = Sweep_obs.Sink
module Ev = Sweep_obs.Event

let check = Alcotest.check

let test_unlimited_completes () =
  let r = Thelpers.run_design H.Nvp (Thelpers.tiny_program ()) in
  Alcotest.(check bool) "completed" true r.H.outcome.Driver.completed;
  check Alcotest.int "no outages" 0 r.H.outcome.Driver.outages;
  Alcotest.(check bool) "took time" true (r.H.outcome.Driver.on_ns > 0.0)

let test_deterministic_outcomes () =
  let power = Thelpers.harvested () in
  let run () =
    (Thelpers.run_design ~power H.Sweep (Thelpers.tiny_program ())).H.outcome
  in
  let a = run () and b = run () in
  check (Alcotest.float 0.0) "same on time" a.Driver.on_ns b.Driver.on_ns;
  check Alcotest.int "same outages" a.Driver.outages b.Driver.outages;
  check (Alcotest.float 0.0) "same energy" (Driver.total_joules a)
    (Driver.total_joules b)

let test_outages_happen_on_long_runs () =
  let power = Thelpers.harvested () in
  let r =
    Thelpers.run_design ~power H.Nvp
      (Sweep_workloads.Workload.program ~scale:0.3
         (Sweep_workloads.Registry.find "sha"))
  in
  Alcotest.(check bool) "NVP suffers outages" true (r.H.outcome.Driver.outages > 0);
  Alcotest.(check bool) "off time accrues" true (r.H.outcome.Driver.off_ns > 0.0)

let test_instruction_guard () =
  let spin =
    let open Sweep_lang.Dsl in
    program
      [ scalar "x" 1 ]
      [ func "main" [] [ while_ (g "x" > i 0) [ setg "x" (g "x" + i 1) ] ] ]
  in
  Alcotest.(check bool) "stagnation raised" true
    (match
       H.run ~max_instructions:50_000 H.Nvp ~power:Driver.Unlimited spin
     with
    | _ -> false
    | exception Driver.Stagnation _ -> true);
  (* The guard allows exactly [max_instructions]: a program needing N
     instructions completes at N and stops at N - 1, in either power
     mode (RFHome at 10 µF sees no outage on sha@0.05). *)
  let prog =
    Sweep_workloads.Workload.program ~scale:0.05
      (Sweep_workloads.Registry.find "sha")
  in
  List.iter
    (fun (mode, power) ->
      let n = (H.run H.Nvp ~power prog).H.outcome.Driver.instructions in
      let r = H.run ~max_instructions:n H.Nvp ~power prog in
      Alcotest.(check bool) (mode ^ ": completes at N") true
        r.H.outcome.Driver.completed;
      match H.run ~max_instructions:(n - 1) H.Nvp ~power prog with
      | _ -> Alcotest.failf "%s: completed past a guard of N - 1" mode
      | exception Driver.Stagnation msg ->
        check Alcotest.string (mode ^ ": message")
          "instruction guard exceeded without Halt" msg)
    [
      ("unlimited", Driver.Unlimited);
      ( "RFHome 10uF",
        Driver.harvested ~trace:(Trace.make Trace.Rf_home) ~farads:10e-6 () );
    ];
  (* The simulated-time guard binds harvested power only. *)
  Alcotest.(check bool) "unlimited: no simulated-time guard" true
    (H.run ~max_sim_s:1e-6 H.Nvp ~power:Driver.Unlimited prog).H.outcome
      .Driver.completed;
  match H.run ~max_sim_s:1e-6 H.Nvp ~power:(Thelpers.harvested ()) prog with
  | _ -> Alcotest.fail "harvested: completed past the simulated-time guard"
  | exception Driver.Stagnation msg ->
    check Alcotest.string "harvested: time-guard message"
      "simulated-time guard exceeded" msg

let test_bigger_capacitor_fewer_outages () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.3
      (Sweep_workloads.Registry.find "sha")
  in
  let outages farads =
    (Thelpers.run_design ~power:(Thelpers.harvested ~farads ()) H.Nvp prog)
      .H.outcome.Driver.outages
  in
  Alcotest.(check bool) "1uF < 470nF outages" true (outages 1e-6 < outages 470e-9);
  check Alcotest.int "1mF runs outage-free" 0 (outages 1e-3)

let test_backups_counted_for_jit () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.2
      (Sweep_workloads.Registry.find "sha")
  in
  let r = Thelpers.run_design ~power:(Thelpers.harvested ()) H.Nvsram prog in
  Alcotest.(check bool) "backups happened" true (r.H.outcome.Driver.backups > 0);
  Alcotest.(check bool) "backup energy accounted" true
    (r.H.outcome.Driver.backup_joules > 0.0);
  let rs = Thelpers.run_design ~power:(Thelpers.harvested ()) H.Sweep prog in
  check Alcotest.int "sweep never backs up" 0 rs.H.outcome.Driver.backups

let test_total_helpers () =
  let r = Thelpers.run_design H.Nvp (Thelpers.tiny_program ()) in
  check (Alcotest.float 1e-9) "total = on+off"
    (r.H.outcome.Driver.on_ns +. r.H.outcome.Driver.off_ns)
    (Driver.total_ns r.H.outcome)

(* ------------------------------------------------------------------ *)
(* Crash-consistency properties.                                       *)

let crash_consistent design (prog, farads, kind) =
  let trace = Trace.make ~seed:(int_of_float (farads *. 1e12)) kind in
  let power = Driver.harvested ~trace ~farads () in
  let r = H.run design ~power prog in
  match H.check_against_interp r prog with Ok () -> true | Error _ -> false

let gen_crash_env =
  QCheck2.Gen.(
    let* prog = Gen.gen_program in
    let* farads = oneofl [ 47e-9; 100e-9; 220e-9; 470e-9 ] in
    let+ kind = oneofl Trace.[ Rf_home; Rf_office; Solar ] in
    (prog, farads, kind))

let crash_prop design count =
  QCheck2.Test.make
    ~name:(Printf.sprintf "crash consistency: %s" (H.design_name design))
    ~count
    ~print:(fun _ -> "<program+env>")
    gen_crash_env (crash_consistent design)

let crash_suite =
  List.map
    (fun d -> QCheck_alcotest.to_alcotest (crash_prop d 25))
    H.all_designs

(* Deterministic per-benchmark spot checks under failures, cheap scale. *)
let spot_bench_crash name design () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.15
      (Sweep_workloads.Registry.find name)
  in
  let r = H.run design ~power:(Thelpers.harvested ~farads:220e-9 ()) prog in
  match H.check_against_interp r prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let spot_suite =
  List.concat_map
    (fun bench ->
      List.map
        (fun design ->
          Alcotest.test_case
            (Printf.sprintf "crash spot: %s on %s" bench (H.design_name design))
            `Slow (spot_bench_crash bench design))
        [ H.Sweep; H.Replay; H.Nvsram; H.Nvmr ])
    [ "adpcmdec"; "dijkstra"; "fft"; "patricia" ]

let suite =
  [
    Alcotest.test_case "unlimited completes" `Quick test_unlimited_completes;
    Alcotest.test_case "deterministic" `Quick test_deterministic_outcomes;
    Alcotest.test_case "outages on long runs" `Quick test_outages_happen_on_long_runs;
    Alcotest.test_case "instruction guard" `Quick test_instruction_guard;
    Alcotest.test_case "capacitor scaling" `Quick test_bigger_capacitor_fewer_outages;
    Alcotest.test_case "jit backups counted" `Quick test_backups_counted_for_jit;
    Alcotest.test_case "total helpers" `Quick test_total_helpers;
  ]
  @ crash_suite @ spot_suite

(* ------------------------------------------------------------------ *)
(* Backup-failure path: a capacitor too small for NVSRAM-E's worst-case
   backup forces failed backups and stale-shadow recoveries; the run
   must still make forward progress and stay consistent. *)

let test_failed_backups_still_progress () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.1
      (Sweep_workloads.Registry.find "adpcmdec")
  in
  let r = H.run H.Nvsram_e ~power:(Thelpers.harvested ~farads:150e-9 ()) prog in
  Alcotest.(check bool) "completed" true r.H.outcome.Driver.completed;
  (match H.check_against_interp r prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "some backups were infeasible" true
    (r.H.outcome.Driver.failed_backups >= 0)

let test_nvmr_rollback_reexecutes () =
  (* NvMR re-runs the continue-band work after each death; its dynamic
     instruction count under failures must exceed the failure-free one. *)
  let prog =
    Sweep_workloads.Workload.program ~scale:0.15
      (Sweep_workloads.Registry.find "sha")
  in
  let free = H.run H.Nvmr ~power:Driver.Unlimited prog in
  let harv = H.run H.Nvmr ~power:(Thelpers.harvested ()) prog in
  Alcotest.(check bool) "rollbacks re-execute" true
    (harv.H.outcome.Driver.instructions > free.H.outcome.Driver.instructions)

let test_sweep_never_reexecutes_committed_work () =
  (* SweepCache re-executes at most the interrupted region per outage:
     dynamic instructions grow only mildly under failures. *)
  let prog =
    Sweep_workloads.Workload.program ~scale:0.15
      (Sweep_workloads.Registry.find "sha")
  in
  let free = H.run H.Sweep ~power:Driver.Unlimited prog in
  let harv = H.run H.Sweep ~power:(Thelpers.harvested ()) prog in
  let extra =
    float_of_int
      (harv.H.outcome.Driver.instructions - free.H.outcome.Driver.instructions)
    /. float_of_int free.H.outcome.Driver.instructions
  in
  Alcotest.(check bool) "re-execution under 5%" true (extra < 0.05)

let suite =
  suite
  @ [
      Alcotest.test_case "failed backups progress" `Quick
        test_failed_backups_still_progress;
      Alcotest.test_case "nvmr rollback cost" `Quick test_nvmr_rollback_reexecutes;
      Alcotest.test_case "sweep minimal re-execution" `Quick
        test_sweep_never_reexecutes_committed_work;
    ]

(* ------------------------------------------------------------------ *)
(* Golden driver output.  Each run's outcome fields (floats in [%h]),
   its per-PC profile JSON and its event stream (timestamp, tag, name,
   JSON args) are hashed into one MD5 digest and compared with the
   table below.  The matrix is every design × {unlimited power,
   RFOffice at 100 nF} × {no fault, a nested crash at instruction 3000,
   a doubly nested crash at the 5th region_end} on sha@0.1: it drives
   JIT backups, deaths, NvMR's keep-running backups and the injected
   crash's JIT commit (charged under harvested power, free under
   unlimited power).  Only SweepCache emits region_end, so the other
   designs' event-fault rows equal their fault-free ones.  Every run
   is repeated with attribution disabled — the path sweepexp, sweepfleet
   and perfbench take, where the per-PC counters are skipped — and its
   outcome line and event stream (the [reexec] discarded counts
   included) must equal the armed run's.  When a model change is meant
   to move these outputs, run the sim suite ([dune exec
   test/test_main.exe -- test sim]): this test's failure prints a
   replacement row for every run that moved. *)

let golden_table =
  [
    ("NVP unlimited none", "7769242f9444872aa638bed3c879f6fa");
    ("NVP unlimited instr3000+1", "e862618365cb8301c7180b8bbd09bbca");
    ("NVP unlimited region_end#5+2", "7769242f9444872aa638bed3c879f6fa");
    ("NVP rfoffice-100nF none", "ac94c865ecd158074f5af8875b7696a5");
    ("NVP rfoffice-100nF instr3000+1", "522e938dc44c8d8fe835dfd70ed3746a");
    ("NVP rfoffice-100nF region_end#5+2", "ac94c865ecd158074f5af8875b7696a5");
    ("WT-VCache unlimited none", "5dc178c5ca6008607fb78879ca918f0f");
    ("WT-VCache unlimited instr3000+1", "ae1eb17417a2fca1481bb015370026c3");
    ("WT-VCache unlimited region_end#5+2", "5dc178c5ca6008607fb78879ca918f0f");
    ("WT-VCache rfoffice-100nF none", "ce50104e7f1069edd749e0d43a5fb890");
    ("WT-VCache rfoffice-100nF instr3000+1", "e0ab4a70372f45f0e792777ae2b1fd3d");
    ("WT-VCache rfoffice-100nF region_end#5+2", "ce50104e7f1069edd749e0d43a5fb890");
    ("NVSRAM unlimited none", "3dbaeb166a176aa391a2ed005eb39fe1");
    ("NVSRAM unlimited instr3000+1", "a3d3def01776b34ae72f58bf6f2f922e");
    ("NVSRAM unlimited region_end#5+2", "3dbaeb166a176aa391a2ed005eb39fe1");
    ("NVSRAM rfoffice-100nF none", "ea89b1a435b5c6658bc3a759ee9c59bf");
    ("NVSRAM rfoffice-100nF instr3000+1", "5c01980e36b505b8d527507f81a2398d");
    ("NVSRAM rfoffice-100nF region_end#5+2", "ea89b1a435b5c6658bc3a759ee9c59bf");
    ("NVSRAM-E unlimited none", "fd3f26b3ecf43abd8830b2ea1e9eb4fa");
    ("NVSRAM-E unlimited instr3000+1", "a64ba6ebc68c3bd62e33dd11898cb55a");
    ("NVSRAM-E unlimited region_end#5+2", "fd3f26b3ecf43abd8830b2ea1e9eb4fa");
    ("NVSRAM-E rfoffice-100nF none", "98a06b51a5261564bc92abfc974bf465");
    ("NVSRAM-E rfoffice-100nF instr3000+1", "2d24c8c28f7102866713336bb41d457a");
    ("NVSRAM-E rfoffice-100nF region_end#5+2", "98a06b51a5261564bc92abfc974bf465");
    ("ReplayCache unlimited none", "294f58aa7a113d0829d648594a453405");
    ("ReplayCache unlimited instr3000+1", "3e51a7f7acd27c7ffd13890b890d7c76");
    ("ReplayCache unlimited region_end#5+2", "294f58aa7a113d0829d648594a453405");
    ("ReplayCache rfoffice-100nF none", "677147dec4d1a373714db776df9003e7");
    ("ReplayCache rfoffice-100nF instr3000+1", "a0e8a12be3d4b8a5ff7aa60690a73e9f");
    ("ReplayCache rfoffice-100nF region_end#5+2", "677147dec4d1a373714db776df9003e7");
    ("NvMR unlimited none", "761855707d3c3a5707367df8b0e19bc4");
    ("NvMR unlimited instr3000+1", "2e04e461deb5ebaee79f7e92976f3003");
    ("NvMR unlimited region_end#5+2", "761855707d3c3a5707367df8b0e19bc4");
    ("NvMR rfoffice-100nF none", "9bc750e105e7356aa9cba94c03fd5f02");
    ("NvMR rfoffice-100nF instr3000+1", "2465eec3150a4554c9bc5aa2868cbbd5");
    ("NvMR rfoffice-100nF region_end#5+2", "9bc750e105e7356aa9cba94c03fd5f02");
    ("SweepCache unlimited none", "ac4932060e06e19ce406f2dc22fdc36e");
    ("SweepCache unlimited instr3000+1", "bc513469cffdb20bb571c6032c5c02d4");
    ("SweepCache unlimited region_end#5+2", "af52d4f399ec0fecd07f26e0dec401e6");
    ("SweepCache rfoffice-100nF none", "ae1b48b3e8ef9880291d3dfa437fb386");
    ("SweepCache rfoffice-100nF instr3000+1", "914ae2ed851535645084cdaba5ee666b");
    ("SweepCache rfoffice-100nF region_end#5+2", "536d992d193d7f7e7aba546e13df8c76");
  ]

(* One run's outcome line, event stream and, when armed, profile, plus
   the run itself. *)
let golden_parts prog ~attrib (config, design, power, fault) =
  let events = Buffer.create 65536 in
  let sink =
    Sink.make (fun ~ns ev ->
        Printf.bprintf events "%h %s %s {%s}\n" ns (Ev.tag ev) (Ev.name ev)
          (Ev.json_args ev))
  in
  let r =
    Sink.with_sink sink (fun () ->
        H.run ?config ~attrib ?fault design ~power prog)
  in
  let o = r.H.outcome in
  let outcome =
    Printf.sprintf "%b %h %h %d %d %d %d %h %h %h %h %d %d" o.Driver.completed
      o.Driver.on_ns o.Driver.off_ns o.Driver.outages o.Driver.deaths
      o.Driver.backups o.Driver.failed_backups o.Driver.compute_joules
      o.Driver.backup_joules o.Driver.restore_joules o.Driver.quiescent_joules
      o.Driver.instructions o.Driver.injected_faults
  in
  let profile = Option.map Sweep_sim.Profile.to_json (Sweep_sim.Profile.of_result r) in
  ((outcome, Buffer.contents events, profile), r)

let golden_digest (outcome, events, profile) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ outcome; Option.get profile; events ]))

let golden_powers () =
  [ ("unlimited", Driver.Unlimited);
    ("rfoffice-100nF", Thelpers.harvested ~farads:100e-9 ()) ]

let golden_faults =
  [ ("none", None);
    ("instr3000+1", Some (Fault.at_instruction ~nested:1 3000));
    ("region_end#5+2", Some (Fault.at_event ~nth:5 ~nested:2 "region_end")) ]

(* Runs every labelled configuration twice (armed, then with attribution
   disabled) and fails listing the replacement row of every armed run
   whose digest is not [table]'s, or naming every run whose unarmed
   outputs differ.  Returns the armed results for further checks. *)
let check_golden ~table prog runs =
  let checked =
    List.map
      (fun (label, run) ->
        let ((outcome, events, _) as armed), r =
          golden_parts prog ~attrib:true run
        in
        let d = golden_digest armed in
        let row =
          if List.assoc_opt label table = Some d then None
          else Some (Printf.sprintf "    (%S, %S);" label d)
        in
        let (off_outcome, off_events, off_profile), _ =
          golden_parts prog ~attrib:false run
        in
        let divergence =
          if off_profile <> None then Some (label ^ ": profile without attribution")
          else if off_outcome <> outcome then Some (label ^ ": outcome")
          else if off_events <> events then Some (label ^ ": event stream")
          else None
        in
        (row, divergence, (label, r)))
      runs
  in
  let moved = List.filter_map (fun (row, _, _) -> row) checked
  and diverged = List.filter_map (fun (_, d, _) -> d) checked in
  if moved <> [] then
    Alcotest.failf "%d of %d runs moved; new rows:\n%s" (List.length moved)
      (List.length runs) (String.concat "\n" moved);
  if diverged <> [] then
    Alcotest.failf "%d of %d runs differ with attribution disabled:\n%s"
      (List.length diverged) (List.length runs)
      (String.concat "\n" diverged);
  List.map (fun (_, _, lr) -> lr) checked

let test_golden_outputs () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.1
      (Sweep_workloads.Registry.find "sha")
  in
  let runs =
    List.concat_map
      (fun design ->
        List.concat_map
          (fun (pname, power) ->
            List.map
              (fun (fname, fault) ->
                ( String.concat " " [ H.design_name design; pname; fname ],
                  (None, design, power, fault) ))
              golden_faults)
          (golden_powers ()))
      H.all_designs
  in
  ignore (check_golden ~table:golden_table prog runs)

(* Region-dense golden rows: SweepCache on rijndaelenc@0.05, which ends
   a region every 18 instructions, so region boundaries, write-after-
   write stalls (§4.3) and buffer hand-over waits (§3.3) all recur many
   times per run — sha@0.1 above has 208 regions and almost no stalls.
   Both buffer-search modes × the same powers and fault plans.  The
   stall assertions keep the rows covering the DMA engine's phase-1 and
   phase-2 readers. *)
let dense_golden_table =
  [
    ("SweepCache/EmptyBit unlimited none", "dd8bfbc086837d6a12169745a6e0bdb1");
    ("SweepCache/EmptyBit unlimited instr3000+1", "b7202863316530a33228d94a2129b5e0");
    ("SweepCache/EmptyBit unlimited region_end#5+2", "7d32ecb2951b7c17b547b27254edf02f");
    ("SweepCache/EmptyBit rfoffice-100nF none", "1c6cd659ddd88325b28314a76c5fe13c");
    ("SweepCache/EmptyBit rfoffice-100nF instr3000+1", "025190dc1d3dca86cf092c7fa0f38079");
    ("SweepCache/EmptyBit rfoffice-100nF region_end#5+2", "74fbd5e8433523d599480b572081623b");
    ("SweepCache/NvmSearch unlimited none", "a56b2a1d131e918b2b62f9aceeea0a85");
    ("SweepCache/NvmSearch unlimited instr3000+1", "c5b1bd840b27ece5d951189a2d29c89f");
    ("SweepCache/NvmSearch unlimited region_end#5+2", "b91f57aada61a22069411402f0a82284");
    ("SweepCache/NvmSearch rfoffice-100nF none", "528e46f5c249c61575ac3a2821c6e6ce");
    ("SweepCache/NvmSearch rfoffice-100nF instr3000+1", "16023a54bcf2908b2d18c7147b521537");
    ("SweepCache/NvmSearch rfoffice-100nF region_end#5+2", "7f567b7f962037174d6c725259b0b2f6");
  ]

let test_dense_golden_outputs () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.05
      (Sweep_workloads.Registry.find "rijndaelenc")
  in
  let searches =
    [ ("EmptyBit", Sweep_machine.Config.Empty_bit);
      ("NvmSearch", Sweep_machine.Config.Nvm_search) ]
  in
  let runs =
    List.concat_map
      (fun (sname, search) ->
        let config =
          Some (Sweep_machine.Config.with_search Sweep_machine.Config.default search)
        in
        List.concat_map
          (fun (pname, power) ->
            List.map
              (fun (fname, fault) ->
                ( String.concat " " [ "SweepCache/" ^ sname; pname; fname ],
                  (config, H.Sweep, power, fault) ))
              golden_faults)
          (golden_powers ()))
      searches
  in
  List.iter
    (fun (label, r) ->
      let f = (H.mstats r).Sweep_machine.Mstats.f in
      Alcotest.(check bool)
        (label ^ ": write-after-write stalls") true
        (f.Sweep_machine.Mstats.waw_stall_ns > 0.0);
      Alcotest.(check bool)
        (label ^ ": buffer hand-over waits") true
        (f.Sweep_machine.Mstats.wait_ns > 0.0))
    (check_golden ~table:dense_golden_table prog runs)

(* A write-after-write stall waits for a prior region's flush, so the
   region it names must be one whose end the stream has already shown
   (a stall that read the line's tag after the flush cleaned it would
   name region -1). *)
let test_waw_stall_names_prior_region () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.05
      (Sweep_workloads.Registry.find "rijndaelenc")
  in
  List.iter
    (fun (pname, power) ->
      let ended = Hashtbl.create 1024 and stalls = ref 0 and bad = ref [] in
      let sink =
        Sink.make (fun ~ns:_ ev ->
            match ev with
            | Ev.Region_end { seq; _ } -> Hashtbl.replace ended seq ()
            | Ev.Waw_stall { seq; _ } ->
              incr stalls;
              if not (Hashtbl.mem ended seq) then bad := seq :: !bad
            | _ -> ())
      in
      Sink.with_sink sink (fun () -> ignore (H.run H.Sweep ~power prog));
      Alcotest.(check bool) (pname ^ ": stalls happen") true (!stalls > 0);
      Alcotest.(check (list int)) (pname ^ ": stalls name ended regions") []
        (List.rev !bad))
    (golden_powers ())

let suite =
  suite
  @ [
      Alcotest.test_case "golden driver output" `Slow test_golden_outputs;
      Alcotest.test_case "golden region-dense output" `Slow
        test_dense_golden_outputs;
      Alcotest.test_case "waw stall names its region" `Quick
        test_waw_stall_names_prior_region;
    ]
