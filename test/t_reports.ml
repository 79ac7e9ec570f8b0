(* Byte pins for every report rendered from a file the tools write:
   fleet.json, the tune frontier and journal, a JSONL trace with its
   metrics and results side-files, per-PC profiles, and run diffs.
   Each artifact comes from a small real run made in-process and
   written by its own writer; each rendering is pinned by its MD5, so a
   change to any reader that moves one byte of one report fails here.

   Artifacts live in a scratch directory whose name is replaced by
   "DIR" before hashing, so the pins do not depend on where it was
   made. *)

module A = Sweep_analyze
module Obs = Sweep_obs
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Profile = Sweep_sim.Profile
module Trace = Sweep_energy.Power_trace
module Results = Sweep_exp.Results
module Spec = Sweep_fleet.Spec
module Runner = Sweep_fleet.Runner
module Search = Sweep_tune.Search
module Frontier = Sweep_tune.Frontier

let check = Alcotest.check
let md5 s = Digest.to_hex (Digest.string s)

let with_dir = Thelpers.with_tmp_dir

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* [(name, rendering)] against [(name, md5)], all mismatches reported
   together so one run shows every moved pin. *)
let check_pins ~dir pins got =
  let actual =
    List.map (fun (name, s) -> (name, md5 (replace_all ~sub:dir ~by:"DIR" s)))
      got
  in
  check
    Alcotest.(list (pair string string))
    "report digests" pins actual

let formats =
  [ ("text", A.Report.Text); ("csv", A.Report.Csv); ("md", A.Report.Markdown) ]

let renders prefix r =
  List.map (fun (n, f) -> (prefix ^ "." ^ n, A.Report.render f r)) formats

(* ---------------- fleet ---------------- *)

let fleet_spec =
  let arm = Spec.default_arm in
  {
    Spec.name = "pin";
    devices = 40;
    seed = 5;
    bench = "sha";
    scale = 0.05;
    design = H.Sweep;
    trace = Trace.Rf_office;
    v_max = 3.5;
    v_min = 2.8;
    jitter =
      { Spec.max_shift_steps = 400; amp_spread_permille = 300;
        max_drop_bp = 200 };
    arms =
      [
        { arm with Spec.arm_name = "base"; weight = 3; farads = 100e-9 };
        { arm with Spec.arm_name = "small"; weight = 1; farads = 68e-9 };
      ];
  }

let test_fleet_report () =
  with_dir (fun dir ->
      let r = ok (Runner.run ~workers:1 ~dir fleet_spec) in
      let path = r.Runner.report_path in
      let t = ok (A.Fleet_view.load path) in
      check_pins ~dir
        [
          ("fleet.text", "fc65a805f8554969942ae964231581bc");
          ("fleet.csv", "2da25c9ba3402f11e76ca6ddb0a2d36f");
          ("fleet.md", "0012b3e48a886545b2fe66c298b0e8c7");
        ]
        (renders "fleet" (A.Fleet_view.report ~source:path t)))

(* ---------------- tune ---------------- *)

let test_tune_report () =
  Results.clear ();
  with_dir (fun dir ->
      let journal = Filename.concat dir "journal.jsonl" in
      let frontier = Filename.concat dir "frontier.jsonl" in
      let o, _ =
        ok
          (Search.run ~workers:1 ~journal
             { Search.default_params with budget = 40; scale = 0.05 })
      in
      Frontier.write_jsonl frontier o.Search.frontier;
      let bare, _ = ok (A.Tune_file.load frontier) in
      let full, _ = ok (A.Tune_file.load ~journal frontier) in
      check_pins ~dir
        [
          ("tune.text", "ce2b1f5432e83a3545f19e567fba0b6e");
          ("tune.csv", "d3177c70de207e22bc57ad885cb7a92b");
          ("tune.md", "6faafe292ea0e730ac5f603b795d2b8f");
          ("tune+journal.text", "57649e0691ea2fa8bece9382fcae408a");
          ("tune+journal.csv", "a0c35d6ea65e2273e1321b795851b6fc");
          ("tune+journal.md", "0b1055e9a8eb0c77ee5ea9ae28f14be7");
        ]
        (renders "tune" bare @ renders "tune+journal" full))

(* ---------------- trace, metrics, results ---------------- *)

let sha_power = lazy (Driver.harvested ~trace:(Trace.make Trace.Rf_office)
                        ~farads:100e-9 ())

(* One sha@0.05 run under harvested power, optionally traced.  Returns
   the metrics snapshot of this run alone (instruments it left at zero
   are dropped, so the set does not depend on what ran before) and its
   results line. *)
let sim_run ?sink ~key design =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      let ast =
        Sweep_workloads.Workload.program ~scale:0.05
          (Sweep_workloads.Registry.find "sha")
      in
      let run () = H.run design ~power:(Lazy.force sha_power) ast in
      let r =
        match sink with
        | Some s -> Obs.Sink.with_sink s run
        | None -> run ()
      in
      let st = H.mstats r in
      let name = H.design_name design in
      Sweep_machine.Mstats.publish
        ~labels:[ ("bench", "sha") ] st;
      let snap =
        List.filter
          (fun (_, s) ->
            match s with
            | Obs.Metrics.Count n -> n <> 0
            | Obs.Metrics.Value v -> v <> 0.0
            | Obs.Metrics.Histo h -> h.count <> 0)
          (Obs.Metrics.snapshot ())
      in
      let line =
        Results.json_line ~ts:0.0 ~exp:"sweepsim" ~key ~design:name
          ~label:name ~power:"rfoffice-100nF" ~bench:"sha" ~scale:0.05
          ~elapsed_s:0.0
          {
            Results.outcome = r.H.outcome;
            mstats = st;
            miss_rate = H.cache_miss_rate r;
            nvm_writes = H.nvm_writes r;
          }
      in
      (snap, line))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let test_trace_report () =
  with_dir (fun dir ->
      let trace_path = Filename.concat dir "trace.jsonl" in
      let metrics_path = Filename.concat dir "metrics.json" in
      let results_path = Filename.concat dir "results.jsonl" in
      let snap, line =
        sim_run ~sink:(Obs.Jsonl_sink.create trace_path) ~key:"sha|sweep"
          H.Sweep
      in
      Obs.Metrics.write_json metrics_path snap;
      write_file results_path (line ^ "\n");
      let r =
        ok (A.Report.build ~metrics_path ~results_path ~trace_path ())
      in
      check_pins ~dir
        [
          ("trace.text", "1f3aa6335caf8f419730ecb2497c85fb");
          ("trace.csv", "a8f93e9d4a91503d8c8fdd0a88ad99fa");
          ("trace.md", "6421a5b45a7f8725b3f0aeebb9689df9");
        ]
        (renders "trace" r))

let test_diff_reports () =
  with_dir (fun dir ->
      let path name = Filename.concat dir name in
      let s_snap, s_line = sim_run ~key:"sha" H.Sweep in
      let n_snap, n_line = sim_run ~key:"sha" H.Nvp in
      let _, s2_line = sim_run ~key:"sha|both" H.Sweep in
      Obs.Metrics.write_json (path "m-sweep.json") s_snap;
      Obs.Metrics.write_json (path "m-nvp.json") n_snap;
      write_file (path "r-base.jsonl") (s_line ^ "\n" ^ s2_line ^ "\n");
      write_file (path "r-cur.jsonl") (n_line ^ "\n" ^ s2_line ^ "\n");
      let rendered name base cur =
        let d =
          ok (A.Diff.diff_files ~threshold_pct:5.0 (path base) (path cur))
        in
        [ (name ^ ".text", A.Diff.render_text d);
          (name ^ ".json", A.Diff.render_json d) ]
      in
      check_pins ~dir
        [
          ("metrics.text", "b7ba45d4deaa0d7baf0c72d63aea75b1");
          ("metrics.json", "d8c25f4412eaf1dc3ed22a6230fff13b");
          ("results.text", "5e5f9bfb05f704f7bf5de213d31db22f");
          ("results.json", "e64035a74add7f1b3e6a94a3c7626b6d");
        ]
        (rendered "metrics" "m-sweep.json" "m-nvp.json"
        @ rendered "results" "r-base.jsonl" "r-cur.jsonl"))

(* ---------------- profiles ---------------- *)

let test_profile_reports () =
  with_dir (fun dir ->
      let ast =
        Sweep_workloads.Workload.program ~scale:0.1
          (Sweep_workloads.Registry.find "sha")
      in
      let power =
        Driver.harvested ~trace:(Trace.make Trace.Rf_office) ~farads:470e-9 ()
      in
      let profile design =
        let r = H.run ~attrib:true design ~power ast in
        let p =
          Option.get
            (Profile.of_result ~bench:"sha" ~scale:0.1
               ~key:("sha|" ^ H.design_name design) r)
        in
        let path = Filename.concat dir (H.design_name design ^ ".json") in
        Profile.write_json p ~path;
        ok (Profile.load path)
      in
      let sweep = profile H.Sweep and nvp = profile H.Nvp in
      let d = ok (A.Profile_view.diff nvp sweep) in
      check_pins ~dir
        [
          ("profile.sweep", "0c779c799dbf1cc32eae9971e9561623");
          ("profile.nvp", "0741e15a50efbbb4e4ccdcff1e8f0cc1");
          ("profile.diff.text", "616f9c7517a99776823d13923b9bafbf");
          ("profile.diff.json", "51310c389edc8874c78f75c3e8948bb0");
        ]
        [
          ("profile.sweep", A.Profile_view.render_report sweep);
          ("profile.nvp", A.Profile_view.render_report nvp);
          ("profile.diff.text", A.Diff.render_text d);
          ("profile.diff.json", A.Diff.render_json d);
        ])

let suite =
  [
    Alcotest.test_case "fleet report bytes" `Quick test_fleet_report;
    Alcotest.test_case "tune report bytes" `Quick test_tune_report;
    Alcotest.test_case "trace report bytes" `Quick test_trace_report;
    Alcotest.test_case "diff report bytes" `Quick test_diff_reports;
    Alcotest.test_case "profile report bytes" `Quick test_profile_reports;
  ]
