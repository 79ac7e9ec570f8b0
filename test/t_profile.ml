(* Per-PC attribution profiler tests.

   The load-bearing property is conservation: the per-PC counters are
   an exact decomposition of the whole-run totals the simulator already
   reports.  Over the pinned 9-job bench matrix (the same design ×
   benchmark × harvested-power set `sweeptrace bench` gates on) we
   require, as exact integer identities per job:

     Σ count            = outcome.instructions
     Σ nvm + ckpt_nvm   = NVM write events across Driver.run
     Σ cache_misses     = cache misses across Driver.run
     Σ crashes          = outages (every power cycle strikes one PC)
     Σ reexec           = Attrib.total_reexec  ≤  Σ count

   plus serialisation properties: profiles are byte-deterministic,
   round-trip through Profile.of_json, and self-diff clean. *)

module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Profile = Sweep_sim.Profile
module Attrib = Sweep_obs.Attrib
module Pipeline = Sweep_compiler.Pipeline
module Program = Sweep_isa.Program
module Decoded = Sweep_isa.Decoded
module M = Sweep_machine.Machine_intf
module Nvm = Sweep_mem.Nvm
module Cache = Sweep_mem.Cache
module C = Sweep_exp.Exp_common
module Jobs = Sweep_exp.Jobs
module A = Sweep_analyze

let check = Alcotest.check

(* One bench-matrix job, instrumented by hand so the NVM / cache
   counters can be snapshotted after machine construction (program
   load writes NVM before Driver.run starts; attribution only covers
   the run). *)
let run_instrumented job =
  let s = job.Jobs.setting in
  let w = Sweep_workloads.Registry.find job.Jobs.bench in
  let ast = Sweep_workloads.Workload.program ~scale:job.Jobs.scale w in
  let compiled =
    H.compile ~options:s.C.options s.C.design ast
  in
  let m = H.machine ~config:s.C.config s.C.design compiled.Pipeline.program in
  let power = Jobs.to_power job.Jobs.power in
  let w0 = Nvm.write_events (M.nvm m) in
  let mi0 = match M.cache m with Some c -> Cache.misses c | None -> 0 in
  let at =
    Attrib.create
      ~len:(Array.length compiled.Pipeline.program.Program.code)
  in
  let outcome = Driver.run ~attrib:at m ~power in
  let w1 = Nvm.write_events (M.nvm m) in
  let mi1 = match M.cache m with Some c -> Cache.misses c | None -> 0 in
  (compiled, at, outcome, w1 - w0, mi1 - mi0)

let test_reconcile_bench_matrix () =
  List.iter
    (fun job ->
      let key = Jobs.key job in
      let compiled, at, outcome, nvm_delta, miss_delta =
        run_instrumented job
      in
      let tt = Attrib.totals at in
      check Alcotest.int
        (key ^ ": instructions")
        outcome.Driver.instructions tt.Attrib.t_instructions;
      check Alcotest.int
        (key ^ ": nvm writes")
        nvm_delta
        (tt.Attrib.t_nvm_writes + tt.Attrib.t_ckpt_nvm_writes);
      check Alcotest.int
        (key ^ ": cache misses")
        miss_delta tt.Attrib.t_cache_misses;
      check Alcotest.int
        (key ^ ": crashes = outages")
        outcome.Driver.outages tt.Attrib.t_crashes;
      check Alcotest.int
        (key ^ ": total_reexec")
        (Attrib.total_reexec at) tt.Attrib.t_reexec;
      Alcotest.(check bool)
        (key ^ ": reexec bounded by retirement")
        true
        (tt.Attrib.t_reexec >= 0
        && tt.Attrib.t_reexec <= tt.Attrib.t_instructions);
      (* The serialised rows must decompose the same totals: emitting
         only charged PCs may not drop counts. *)
      let p =
        Profile.make ~bench:job.Jobs.bench ~scale:job.Jobs.scale ~key
          compiled.Pipeline.program at
      in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 p.Profile.rows in
      check Alcotest.int
        (key ^ ": rows sum count")
        tt.Attrib.t_instructions
        (sum (fun r -> r.Profile.count));
      check Alcotest.int
        (key ^ ": rows sum nvm")
        (tt.Attrib.t_nvm_writes + tt.Attrib.t_ckpt_nvm_writes)
        (sum (fun r -> r.Profile.nvm_writes + r.Profile.ckpt_nvm_writes));
      check Alcotest.int
        (key ^ ": rows sum misses")
        tt.Attrib.t_cache_misses
        (sum (fun r -> r.Profile.cache_misses));
      check Alcotest.int
        (key ^ ": rows sum reexec")
        tt.Attrib.t_reexec
        (sum (fun r -> r.Profile.reexec));
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: pc %d forward >= 0" key r.Profile.pc)
            true (r.Profile.forward >= 0))
        p.Profile.rows)
    (A.Bench.jobs ())

(* Same job twice -> byte-identical JSON and folded output: profiles
   embed no wall-clock, host, or ordering nondeterminism. *)
let test_profile_deterministic () =
  let job = List.hd (A.Bench.jobs ()) in
  let render () =
    let compiled, at, _, _, _ = run_instrumented job in
    let p =
      Profile.make ~bench:job.Jobs.bench ~scale:job.Jobs.scale
        ~key:(Jobs.key job) compiled.Pipeline.program at
    in
    (Profile.to_json p, Profile.to_folded p)
  in
  let j1, f1 = render () in
  let j2, f2 = render () in
  check Alcotest.string "json byte-identical" j1 j2;
  check Alcotest.string "folded byte-identical" f1 f2;
  Alcotest.(check bool) "folded non-empty" true (String.length f1 > 0)

(* Writer -> Profile.of_json round-trip, report rendering, and a
   self-diff (which must be verdict-free at any threshold). *)
let test_profile_view_roundtrip () =
  let job = List.hd (A.Bench.jobs ()) in
  let compiled, at, _, _, _ = run_instrumented job in
  let p =
    Profile.make ~design:(H.design_name job.Jobs.setting.C.design)
      ~bench:job.Jobs.bench ~scale:job.Jobs.scale ~key:(Jobs.key job)
      compiled.Pipeline.program at
  in
  match Sweep_util.Json.parse (Profile.to_json p) with
  | Error e -> Alcotest.fail ("profile JSON does not parse: " ^ e)
  | Ok j -> (
    match Profile.of_json j with
    | Error e -> Alcotest.fail ("Profile.of_json rejects own writer: " ^ e)
    | Ok v ->
      let tt = Attrib.totals at in
      check Alcotest.int "totals instructions survive"
        tt.Attrib.t_instructions v.Profile.totals.Attrib.t_instructions;
      check Alcotest.int "row count survives"
        (List.length p.Profile.rows)
        (List.length v.Profile.rows);
      let report = A.Profile_view.render_report ~top:5 v in
      Alcotest.(check bool) "report renders" true (String.length report > 0);
      (match A.Profile_view.diff ~threshold_pct:0.0 v v with
      | Error e -> Alcotest.fail e
      | Ok d ->
        Alcotest.(check bool) "self-diff has no regressions" true
          (not (A.Diff.has_regressions d));
        Alcotest.(check bool) "self-diff has no improvements" true
          (A.Diff.improvements d = [])))

(* The decoded PC map: every PC resolves to a function, a label and an
   opcode name, and label offsets are consistent with the sweep (the
   PC at offset 0 of a label is where the label points). *)
let test_decoded_pc_map () =
  let ast =
    Sweep_workloads.Workload.program ~scale:0.05
      (Sweep_workloads.Registry.find "sha")
  in
  let compiled = H.compile H.Sweep ast in
  let prog = compiled.Pipeline.program in
  let dec = Decoded.compile prog in
  let len = Array.length prog.Program.code in
  Alcotest.(check bool) "program non-empty" true (len > 0);
  for pc = 0 to len - 1 do
    if Decoded.pc_op_name dec pc = "" then
      Alcotest.failf "pc %d has no op name" pc;
    if Decoded.pc_func dec pc = "" then
      Alcotest.failf "pc %d has no function" pc;
    if Decoded.pc_label_off dec pc < 0 then
      Alcotest.failf "pc %d has negative label offset" pc
  done;
  (* Labels can alias (an empty block's label shares its successor's
     PC) and the sweep keeps one of them — so self-resolution is only
     required where the label's PC is unique. *)
  let pc_unique lpc =
    List.length (List.filter (fun (_, p) -> p = lpc) prog.Program.labels) = 1
  in
  List.iter
    (fun (name, lpc) ->
      if lpc < len && pc_unique lpc then begin
        check Alcotest.string
          (Printf.sprintf "label %s at own pc" name)
          name
          (Decoded.pc_label dec lpc);
        check Alcotest.int
          (Printf.sprintf "label %s offset 0" name)
          0
          (Decoded.pc_label_off dec lpc)
      end)
    prog.Program.labels

(* A disabled profiler still measures re-execution in aggregate: its
   single slot accumulates instructions-since-commit, which note_crash
   harvests as the outage's discarded count (what Ev.Reexec reports in
   untraced-profile runs). *)
let test_disabled_attrib_counts_reexec () =
  let at = Attrib.disabled () in
  Alcotest.(check bool) "not armed" true (not (Attrib.armed at));
  (* simulate the hot loop's unconditional stores for 7 instructions *)
  for pc = 100 to 106 do
    let i = pc land at.Attrib.mask in
    at.Attrib.count.(i) <- at.Attrib.count.(i) + 1;
    if at.Attrib.stamp.(i) = at.Attrib.epoch then
      at.Attrib.delta.(i) <- at.Attrib.delta.(i) + 1
    else begin
      at.Attrib.stamp.(i) <- at.Attrib.epoch;
      at.Attrib.delta.(i) <- 1
    end
  done;
  check Alcotest.int "crash discards everything since commit" 7
    (Attrib.note_crash at ~pc:106);
  check Alcotest.int "nothing pending after the crash" 0
    (Attrib.note_crash at ~pc:106)

(* Profile.of_json inverts Profile.to_json, on a run whose power
   failures leave re-execution and checkpoint costs in the table. *)
let test_profile_json_roundtrip () =
  let r =
    H.run ~attrib:true H.Sweep ~power:(Thelpers.harvested ~farads:100e-9 ())
      (Sweep_workloads.Workload.program ~scale:0.05
         (Sweep_workloads.Registry.find "sha"))
  in
  let p = Option.get (Profile.of_result ~bench:"sha" ~scale:0.05 ~key:"k" r) in
  Alcotest.(check bool) "run crashed" true
    (p.Profile.totals.Attrib.t_crashes > 0);
  match
    Result.bind (Sweep_util.Json.parse (Profile.to_json p)) Profile.of_json
  with
  | Error e -> Alcotest.fail e
  | Ok p' -> Alcotest.(check bool) "of_json inverts to_json" true (p' = p)

let suite =
  [
    Alcotest.test_case "bench matrix reconciles exactly" `Slow
      test_reconcile_bench_matrix;
    Alcotest.test_case "profile byte-deterministic" `Slow
      test_profile_deterministic;
    Alcotest.test_case "profile_view round-trip + self-diff" `Slow
      test_profile_view_roundtrip;
    Alcotest.test_case "decoded pc map" `Quick test_decoded_pc_map;
    Alcotest.test_case "disabled attrib still counts reexec" `Quick
      test_disabled_attrib_counts_reexec;
    Alcotest.test_case "profile json round-trip" `Quick
      test_profile_json_roundtrip;
  ]
