(* Tests for the design-space exploration layer: space enumeration,
   Pareto frontier, journal round-trip, and search determinism/resume. *)
module Space = Sweep_tune.Space
module Frontier = Sweep_tune.Frontier
module Journal = Sweep_tune.Journal
module Search = Sweep_tune.Search
module Results = Sweep_exp.Results

let check = Alcotest.check

(* ---------------- space ---------------- *)

let test_space_default () =
  let pts = Space.points Space.default in
  check Alcotest.int "pinned matrix size" 120 (List.length pts);
  Alcotest.(check bool) "all valid" true (List.for_all Space.valid pts);
  Alcotest.(check bool) "canonically sorted" true
    (List.sort Space.compare pts = pts);
  let ids = List.map Space.id pts in
  check Alcotest.int "ids injective" (List.length pts)
    (List.length (List.sort_uniq Stdlib.compare ids));
  Alcotest.(check bool) "paper point is in the matrix" true
    (List.exists (fun p -> Space.compare p Space.paper_point = 0) pts)

let test_space_validity () =
  Alcotest.(check bool) "paper point valid" true (Space.valid Space.paper_point);
  Alcotest.(check bool) "store cap above buffer rejected" false
    (Space.valid { Space.paper_point with Space.store_cap = 128 });
  Alcotest.(check bool) "store cap below checkpoint reserve rejected" false
    (Space.valid
       { Space.paper_point with Space.store_cap = Sweep_compiler.Regions.ckpt_reserve });
  Alcotest.(check bool) "broken geometry rejected" false
    (Space.valid { Space.paper_point with Space.cache_bytes = 1000 })

let test_space_json_roundtrip () =
  List.iter
    (fun p ->
      let line = "{" ^ Space.json_fields p ^ "}" in
      match Result.to_option (Sweep_util.Json.parse line) with
      | None -> Alcotest.fail ("unparseable: " ^ line)
      | Some j -> (
          match Space.of_json j with
          | None -> Alcotest.fail ("no point from: " ^ line)
          | Some p' ->
              check Alcotest.int (Space.id p) 0 (Space.compare p p')))
    (Space.points Space.default)

(* ---------------- frontier ---------------- *)

let entry ?(benches = [ "sha" ]) ~rt ~wr ~hw p =
  { Frontier.point = p; benches;
    objs = { Frontier.runtime_ns = rt; nvm_writes = wr; hw_bits = hw } }

let test_frontier_dominance () =
  let a = { Frontier.runtime_ns = 1.0; nvm_writes = 2.0; hw_bits = 3 } in
  let b = { Frontier.runtime_ns = 2.0; nvm_writes = 2.0; hw_bits = 3 } in
  Alcotest.(check bool) "a dominates b" true (Frontier.dominates a b);
  Alcotest.(check bool) "b does not dominate a" false (Frontier.dominates b a);
  Alcotest.(check bool) "no self-domination" false (Frontier.dominates a a);
  let c = { Frontier.runtime_ns = 0.5; nvm_writes = 9.0; hw_bits = 3 } in
  Alcotest.(check bool) "trade-off: neither dominates" false
    (Frontier.dominates a c || Frontier.dominates c a)

let test_frontier_insertion_order () =
  let p = Space.paper_point in
  let mk rt wr hw = entry ~rt ~wr ~hw
      { p with Space.buffer_entries = 64 + hw; store_cap = 24 } in
  let entries =
    [ mk 1.0 5.0 0; mk 2.0 4.0 1; mk 3.0 3.0 2; mk 4.0 2.0 3; mk 5.0 1.0 4;
      mk 6.0 6.0 5 (* dominated by everything cheaper *) ]
  in
  let members es =
    List.map Frontier.entry_line (Frontier.members (Frontier.of_entries es))
  in
  let base = members entries in
  check Alcotest.int "dominated entry pruned" 5 (List.length base);
  Alcotest.(check (list string)) "reverse insertion, same frontier" base
    (members (List.rev entries));
  let rot = List.tl entries @ [ List.hd entries ] in
  Alcotest.(check (list string)) "rotated insertion, same frontier" base
    (members rot)

(* ---------------- journal ---------------- *)

let sample_cell p bench =
  { Journal.point = p; bench; scale = 0.05; key = "k|" ^ bench;
    runtime_ns = 123.5; nvm_writes = 42; completed = true; failed = false;
    error = "" }

(* One committed journal line, as the search appends it. *)
let append oc c = output_string oc (Journal.line c ^ "\n")

let with_tmp f =
  let path = Filename.temp_file "tune" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_journal_roundtrip () =
  with_tmp (fun path ->
      let cells =
        [ sample_cell Space.paper_point "sha";
          { (sample_cell Space.paper_point "fft") with
            Journal.failed = true; completed = false;
            error = "Driver.Stagnation(\"x\")" } ]
      in
      let oc = open_out path in
      List.iter (append oc) cells;
      close_out oc;
      match Journal.load path with
      | Error e -> Alcotest.fail e
      | Ok (cells', warnings) ->
          Alcotest.(check (list string)) "no warnings" [] warnings;
          check Alcotest.int "cells preserved" 2 (List.length cells');
          Alcotest.(check bool) "lines identical" true
            (List.map Journal.line cells = List.map Journal.line cells'))

let test_journal_torn_line () =
  with_tmp (fun path ->
      let oc = open_out path in
      append oc (sample_cell Space.paper_point "sha");
      output_string oc "{\"schema_version\":1,\"key\":\"half";
      close_out oc;
      match Journal.load path with
      | Error e -> Alcotest.fail e
      | Ok (cells, warnings) ->
          check Alcotest.int "intact cell kept" 1 (List.length cells);
          check Alcotest.int "torn final line warned" 1 (List.length warnings))

let test_journal_corrupt_middle () =
  with_tmp (fun path ->
      let oc = open_out path in
      append oc (sample_cell Space.paper_point "sha");
      output_string oc "garbage\n";
      append oc (sample_cell Space.paper_point "fft");
      close_out oc;
      Alcotest.(check bool) "corrupt interior line is an error" true
        (match Journal.load path with Error _ -> true | Ok _ -> false))

let test_journal_missing_file () =
  match Journal.load "/nonexistent/tune-journal.jsonl" with
  | Ok ([], []) -> ()
  | _ -> Alcotest.fail "missing journal should load as empty"

(* A line of the next schema is not a torn line: with a valid line
   after it, the journal is corrupt. *)
let test_journal_rejects_other_schema () =
  with_tmp (fun path ->
      let line = Journal.line (sample_cell Space.paper_point "sha") in
      let v1 =
        Printf.sprintf "{\"schema_version\":%d," Journal.schema_version
      in
      let n = String.length v1 in
      let rest = String.sub line n (String.length line - n) in
      let oc = open_out path in
      output_string oc ("{\"schema_version\":2," ^ rest ^ "\n");
      append oc (sample_cell Space.paper_point "fft");
      close_out oc;
      Alcotest.(check bool) "schema_version 2 is a malformed line" true
        (Result.is_error (Journal.load path)))

let entry point benches runtime_ns nvm_writes =
  {
    Frontier.point;
    benches;
    objs = { Frontier.runtime_ns; nvm_writes; hw_bits = Space.hw_bits point };
  }

(* Three mutually non-dominated points with fractional objectives, so
   every float goes through %.17g and back. *)
let sample_frontier =
  Frontier.of_entries
    [
      entry Space.paper_point [ "fft"; "sha" ] 1234567.891 300.5;
      entry
        { Space.paper_point with Space.buffer_entries = 32; store_cap = 24 }
        [ "fft"; "sha" ] 2250000.125 120.25;
      entry
        { Space.paper_point with
          Space.farads = 1e-6; trace = Sweep_energy.Power_trace.Rf_home }
        [ "fft"; "sha" ] 1000000.5 500.75;
    ]

let test_frontier_load_roundtrip () =
  check Alcotest.int "sample frontier keeps all three" 3
    (Frontier.size sample_frontier);
  with_tmp (fun path ->
      Frontier.write_jsonl path sample_frontier;
      match Frontier.load path with
      | Error e -> Alcotest.fail e
      | Ok entries ->
          Alcotest.(check bool) "load inverts write_jsonl" true
            (entries = Frontier.members sample_frontier))

let test_frontier_load_strict () =
  let good = Frontier.entry_line (List.hd (Frontier.members sample_frontier)) in
  let v1 = Printf.sprintf "{\"schema_version\":%d," Frontier.schema_version in
  let v2 =
    "{\"schema_version\":2,"
    ^ String.sub good (String.length v1) (String.length good - String.length v1)
  in
  List.iter
    (fun (what, body) ->
      with_tmp (fun path ->
          let oc = open_out path in
          output_string oc body;
          close_out oc;
          Alcotest.(check bool) what true
            (Result.is_error (Frontier.load path))))
    [
      ("garbage line", good ^ "\nnot json\n");
      ("missing field", "{\"schema_version\":1,\"id\":\"x\"}\n");
      ("schema_version 2", v2 ^ "\n");
    ]

(* ---------------- search ---------------- *)

let tiny_space =
  {
    Space.cache_bytes = [ 2048 ];
    assoc = [ 1 ];
    buffer_entries = [ 32; 64 ];
    store_cap = [ 24 ];
    max_unroll = [ 1; 4 ];
    farads = [ 1e-6 ];
    traces = [ Sweep_energy.Power_trace.Rf_office ];
  }

let params ?(strategy = Search.Grid) ?(ladder = [ [ "sha" ] ]) ?(budget = 16)
    ?early_stop () =
  {
    Search.space = tiny_space;
    strategy;
    budget;
    seed = 7;
    scale = 0.05;
    ladder;
    early_stop;
  }

let run_fresh ?workers ?kill_after params =
  Results.clear ();
  with_tmp (fun journal ->
      Sys.remove journal;
      Search.run ?workers ?kill_after ~journal params)

let frontier_lines (o : Search.outcome) =
  List.map Frontier.entry_line (Frontier.members o.Search.frontier)

let test_search_grid_deterministic () =
  match (run_fresh ~workers:1 (params ()), run_fresh ~workers:2 (params ())) with
  | Ok (o1, []), Ok (o2, []) ->
      check Alcotest.int "all cells scheduled" 4 o1.Search.scheduled;
      check Alcotest.int "all cells simulated" 4 o1.Search.executed;
      Alcotest.(check bool) "frontier non-empty" true
        (Frontier.size o1.Search.frontier > 0);
      Alcotest.(check (list string)) "workers do not change the frontier"
        (frontier_lines o1) (frontier_lines o2)
  | _ -> Alcotest.fail "search failed"

let test_search_budget_truncates () =
  match run_fresh ~workers:1 (params ~budget:2 ()) with
  | Ok (o, []) ->
      check Alcotest.int "budget respected" 2 o.Search.scheduled;
      let cands, worst = Search.plan (params ~budget:2 ()) in
      check Alcotest.int "plan matches" 2 (List.length cands);
      check Alcotest.int "worst case within budget" 2 worst
  | _ -> Alcotest.fail "search failed"

let test_search_halving_promotes () =
  let p =
    params ~strategy:Search.Halving ~ladder:[ [ "sha" ]; [ "dijkstra" ] ]
      ~budget:6 ()
  in
  match run_fresh ~workers:2 p with
  | Ok (o, []) ->
      (* rung 0: 4 points on sha; rung 1: best half (2) on dijkstra *)
      check Alcotest.int "budget exhausted" 6 o.Search.scheduled;
      check Alcotest.int "reached the top rung" 1 o.Search.tier;
      Alcotest.(check (list string)) "cumulative bench coverage"
        [ "dijkstra"; "sha" ] o.Search.tier_benches;
      Alcotest.(check bool) "frontier over survivors" true
        (Frontier.size o.Search.frontier >= 1
        && Frontier.size o.Search.frontier <= 2)
  | Ok (_, w) -> Alcotest.fail (String.concat "; " w)
  | Error e -> Alcotest.fail e

let test_search_resume_equivalence () =
  Results.clear ();
  with_tmp (fun journal ->
      Sys.remove journal;
      let p = params () in
      (* Uninterrupted reference run. *)
      let reference =
        match run_fresh ~workers:1 p with
        | Ok (o, []) -> frontier_lines o
        | _ -> Alcotest.fail "reference run failed"
      in
      (* Killed run: Interrupted escapes, journal keeps completed work. *)
      Results.clear ();
      (match Search.run ~workers:1 ~kill_after:1 ~journal p with
      | exception Search.Interrupted { executed } ->
          Alcotest.(check bool) "killed after at least one eval" true
            (executed >= 1)
      | Ok _ -> Alcotest.fail "kill_after did not fire"
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "journal survives the kill" true
        (Sys.file_exists journal);
      (* Resume: nothing re-evaluated, identical frontier. *)
      Results.clear ();
      match Search.run ~workers:1 ~journal p with
      | Ok (o, []) ->
          check Alcotest.int "budget counts cached cells" 4 o.Search.scheduled;
          Alcotest.(check bool) "journal cells reused" true (o.Search.cached >= 1);
          Alcotest.(check (list string)) "resumed = uninterrupted" reference
            (frontier_lines o)
      | Ok (_, w) -> Alcotest.fail (String.concat "; " w)
      | Error e -> Alcotest.fail e)

(* ---------------- early stop ---------------- *)

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Seed the journal with a synthetic completed sha cell whose 1 ns
   runtime dominates everything: with early-stop on, every real cell's
   budget collapses to margin * 1 ns, so the whole space is pruned —
   deterministically, with no dependence on actual cell runtimes. *)
let test_early_stop_prunes () =
  Results.clear ();
  with_tmp (fun journal ->
      Sys.remove journal;
      let seed =
        {
          (sample_cell Space.paper_point "sha") with
          Journal.key = "synthetic|sha";
          runtime_ns = 1.0;
        }
      in
      let oc = open_out journal in
      append oc seed;
      close_out oc;
      let pruned = Atomic.make 0 in
      let detach =
        Sweep_obs.Sink.spy (fun ~ns:_ ev ->
            match ev with
            | Sweep_obs.Event.Tune_prune _ -> Atomic.incr pruned
            | _ -> ())
      in
      let result =
        Fun.protect ~finally:detach (fun () ->
            Search.run ~workers:1 ~journal (params ~early_stop:1.5 ()))
      in
      match result with
      | Ok (o, []) ->
          check Alcotest.int "all cells still executed" 4 o.Search.executed;
          check Alcotest.int "every cell emitted Tune_prune" 4
            (Atomic.get pruned);
          check Alcotest.int "frontier empty" 0
            (Frontier.size o.Search.frontier);
          check Alcotest.int "every point failed" 4
            (List.length o.Search.failed_points);
          Alcotest.(check bool) "failures say early-stopped" true
            (List.for_all
               (fun (_, e) -> contains_sub e "early-stopped")
               o.Search.failed_points);
          (match Journal.load journal with
          | Ok (cells, []) ->
              let real =
                List.filter
                  (fun c -> c.Journal.key <> "synthetic|sha")
                  cells
              in
              check Alcotest.int "real cells journalled" 4 (List.length real);
              Alcotest.(check bool)
                "pruned cells: incomplete, not failed, budget recorded" true
                (List.for_all
                   (fun c ->
                     (not c.Journal.completed)
                     && (not c.Journal.failed)
                     && contains_sub c.Journal.error "early-stopped")
                   real)
          | _ -> Alcotest.fail "journal reload failed")
      | Ok (_, w) -> Alcotest.fail (String.concat "; " w)
      | Error e -> Alcotest.fail e)

(* A space wide enough for two canonical chunks (24 cells over a
   16-cell chunk size), so chunk 2's budgets really derive from chunk
   1's journalled results.  The frontier and the journal bytes must be
   identical across worker counts and across a kill/resume. *)
let wide_params =
  {
    (params ~ladder:[ [ "sha"; "dijkstra" ] ] ~budget:24 ~early_stop:1.0 ()) with
    Search.space =
      {
        tiny_space with
        Space.max_unroll = [ 1; 2; 4 ];
        farads = [ 1e-6; 4.7e-7 ];
      };
  }

let test_early_stop_resume_equivalence () =
  let p = wide_params in
  let run_to_end ?kill_first workers =
    Results.clear ();
    with_tmp (fun journal ->
        Sys.remove journal;
        (match kill_first with
        | None -> ()
        | Some n -> (
            match Search.run ~workers ~kill_after:n ~journal p with
            | exception Search.Interrupted _ -> Results.clear ()
            | Ok _ -> Alcotest.fail "kill_after did not fire"
            | Error e -> Alcotest.fail e));
        match Search.run ~workers ~journal p with
        | Ok (o, []) -> (frontier_lines o, read_file journal, o)
        | Ok (_, w) -> Alcotest.fail (String.concat "; " w)
        | Error e -> Alcotest.fail e)
  in
  let f1, j1, o1 = run_to_end 1 in
  let f4, j4, _ = run_to_end 4 in
  let fr, jr, o_res = run_to_end ~kill_first:1 1 in
  check Alcotest.int "two chunks of cells" 24 o1.Search.executed;
  Alcotest.(check bool) "pruning was active" true
    (contains_sub j1 "early-stopped");
  Alcotest.(check bool) "frontier survives pruning" true
    (Frontier.size o1.Search.frontier > 0);
  Alcotest.(check (list string)) "frontier j1 = j4" f1 f4;
  check Alcotest.string "journal j1 = j4 (byte-identical)" j1 j4;
  Alcotest.(check bool) "resume reused the first chunk" true
    (o_res.Search.cached >= 16);
  Alcotest.(check (list string)) "frontier resumed = uninterrupted" f1 fr;
  check Alcotest.string "journal resumed = uninterrupted (byte-identical)" j1
    jr

(* The off switch is exact: early_stop = None must reproduce the
   non-early-stop search cell for cell. *)
let test_early_stop_off_is_identity () =
  let strip_params = { wide_params with Search.early_stop = None } in
  let run pp =
    Results.clear ();
    with_tmp (fun journal ->
        Sys.remove journal;
        match Search.run ~workers:1 ~journal pp with
        | Ok (o, []) -> (frontier_lines o, read_file journal)
        | Ok (_, w) -> Alcotest.fail (String.concat "; " w)
        | Error e -> Alcotest.fail e)
  in
  let f_off, j_off = run strip_params in
  let f_off2, j_off2 = run strip_params in
  Alcotest.(check (list string)) "frontier reproducible" f_off f_off2;
  check Alcotest.string "journal reproducible" j_off j_off2;
  Alcotest.(check bool) "no prune markers without early-stop" false
    (contains_sub j_off "early-stopped")

(* ---------------- analyze round-trip ---------------- *)

let test_tune_file_roundtrip () =
  Results.clear ();
  with_tmp (fun journal ->
      Sys.remove journal;
      match Search.run ~workers:1 ~journal (params ()) with
      | Ok (o, []) ->
          with_tmp (fun fpath ->
              Frontier.write_jsonl fpath o.Search.frontier;
              (match Frontier.load fpath with
              | Error e -> Alcotest.fail e
              | Ok entries ->
                  check Alcotest.int "every member parsed"
                    (Frontier.size o.Search.frontier)
                    (List.length entries));
              (match Journal.load journal with
              | Error e -> Alcotest.fail e
              | Ok (cells, warnings) ->
                  Alcotest.(check (list string)) "no journal warnings" []
                    warnings;
                  check Alcotest.int "every cell parsed" o.Search.executed
                    (List.length cells));
              match Sweep_analyze.Tune_file.load ~journal fpath with
              | Error e -> Alcotest.fail e
              | Ok (report, warnings) ->
                  Alcotest.(check (list string)) "no report warnings" []
                    warnings;
                  Alcotest.(check bool) "frontier + sensitivity sections" true
                    (List.length report.Sweep_analyze.Report.sections >= 2);
                  Alcotest.(check bool) "text render non-empty" true
                    (String.length
                       (Sweep_analyze.Report.render Sweep_analyze.Report.Text
                          report)
                    > 0))
      | Ok (_, w) -> Alcotest.fail (String.concat "; " w)
      | Error e -> Alcotest.fail e)

(* A crash in the middle of an append leaves half a journal line.  The
   resume that drops it must cut it before appending, so the resume
   after that still loads and the search ends where an uninterrupted
   one does, byte for byte. *)
let test_torn_journal_resume () =
  let run journal budget =
    Results.clear ();
    match
      Search.run ~workers:1 ~journal
        { Search.default_params with Search.budget; scale = 0.05 }
    with
    | Ok (o, _) ->
        with_tmp (fun fpath ->
            Frontier.write_jsonl fpath o.Search.frontier;
            (read_file journal, read_file fpath))
    | Error e -> Alcotest.fail e
  in
  let fresh f = with_tmp (fun journal -> Sys.remove journal; f journal) in
  let reference = fresh (fun journal -> run journal 24) in
  let resumed =
    fresh (fun journal ->
        ignore (run journal 8);
        Thelpers.tear_last_line journal;
        ignore (run journal 16);
        run journal 24)
  in
  check Alcotest.string "journal = uninterrupted" (fst reference)
    (fst resumed);
  check Alcotest.string "frontier = uninterrupted" (snd reference)
    (snd resumed)

let suite =
  [
    Alcotest.test_case "space default matrix" `Quick test_space_default;
    Alcotest.test_case "space validity" `Quick test_space_validity;
    Alcotest.test_case "space json roundtrip" `Quick test_space_json_roundtrip;
    Alcotest.test_case "frontier dominance" `Quick test_frontier_dominance;
    Alcotest.test_case "frontier insertion order" `Quick
      test_frontier_insertion_order;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal torn line" `Quick test_journal_torn_line;
    Alcotest.test_case "journal corrupt middle" `Quick
      test_journal_corrupt_middle;
    Alcotest.test_case "journal missing file" `Quick test_journal_missing_file;
    Alcotest.test_case "journal rejects another schema" `Quick
      test_journal_rejects_other_schema;
    Alcotest.test_case "frontier load inverts write_jsonl" `Quick
      test_frontier_load_roundtrip;
    Alcotest.test_case "frontier load is strict" `Quick
      test_frontier_load_strict;
    Alcotest.test_case "search grid deterministic" `Slow
      test_search_grid_deterministic;
    Alcotest.test_case "search budget truncates" `Slow
      test_search_budget_truncates;
    Alcotest.test_case "search halving promotes" `Slow
      test_search_halving_promotes;
    Alcotest.test_case "search resume equivalence" `Slow
      test_search_resume_equivalence;
    Alcotest.test_case "early stop prunes dominated cells" `Slow
      test_early_stop_prunes;
    Alcotest.test_case "early stop kill/resume equivalence" `Slow
      test_early_stop_resume_equivalence;
    Alcotest.test_case "early stop off is identity" `Slow
      test_early_stop_off_is_identity;
    Alcotest.test_case "tune file roundtrip" `Slow test_tune_file_roundtrip;
    Alcotest.test_case "torn journal resume" `Slow test_torn_journal_resume;
  ]
