(* Unit and property tests for Sweep_util. *)
module Rng = Sweep_util.Rng
module Stats = Sweep_util.Stats
module Table = Sweep_util.Table
module Durable = Sweep_util.Durable
module Journal = Sweep_tune.Journal

let check = Alcotest.check

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copies continue identically" (Rng.int64 a) (Rng.int64 b)

let prop_int_bounds =
  QCheck2.Test.make ~name:"Rng.int in [0, bound)" ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 5000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_float_bounds =
  QCheck2.Test.make ~name:"Rng.float in [0, bound)" ~count:500
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng 3.5 in
      x >= 0.0 && x < 3.5)

let test_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (Float.abs (mean -. 2.5) < 0.15)

let test_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_mean_geomean () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-6) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "empty geomean" 0.0 (Stats.geomean [])

let test_geomean_exact () =
  check (Alcotest.float 1e-9) "geomean of equal" 5.0
    (Stats.geomean [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "geomean 2,8" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_stddev () =
  check (Alcotest.float 1e-9) "stddev constant" 0.0 (Stats.stddev [ 4.0; 4.0 ]);
  check (Alcotest.float 1e-6) "stddev 0,2" 1.0 (Stats.stddev [ 0.0; 2.0 ])

let test_percentile () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile sorted 0.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile sorted 100.0);
  check (Alcotest.float 1e-9) "p50" 3.0 (Stats.percentile sorted 50.0);
  check (Alcotest.float 1e-9) "p25" 2.0 (Stats.percentile sorted 25.0)

let test_cdf_points_edges () =
  check
    Alcotest.(list (pair (float 0.0) (float 0.0)))
    "empty input" []
    (Stats.cdf_points [] 11);
  (* Singleton: every requested point is the lone sample, percents span
     0..100. *)
  let pts = Stats.cdf_points [ 42.0 ] 3 in
  check
    Alcotest.(list (pair (float 1e-9) (float 1e-9)))
    "singleton" [ (42.0, 0.0); (42.0, 50.0); (42.0, 100.0) ] pts

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"cdf_points monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-100.) 100.))
    (fun samples ->
      let pts = Stats.cdf_points samples 11 in
      let rec mono = function
        | (v1, p1) :: ((v2, p2) :: _ as rest) ->
          v1 <= v2 && p1 <= p2 && mono rest
        | _ -> true
      in
      mono pts)

let test_clamp () =
  check (Alcotest.float 0.0) "below" 1.0 (Stats.clamp ~lo:1.0 ~hi:2.0 0.0);
  check (Alcotest.float 0.0) "above" 2.0 (Stats.clamp ~lo:1.0 ~hi:2.0 9.0);
  check (Alcotest.float 0.0) "inside" 1.5 (Stats.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_ratio () =
  check (Alcotest.float 0.0) "normal" 2.0 (Stats.ratio 4.0 2.0);
  Alcotest.(check bool) "div by zero" true (Stats.ratio 1.0 0.0 = infinity);
  Alcotest.(check bool) "0/0 is nan" true (Float.is_nan (Stats.ratio 0.0 0.0))

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_float_row t "beta" [ 2.5 ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.(check bool) "has alpha row" true
    (Thelpers.contains s "alpha");
  Alcotest.(check bool) "formats float" true
    (Thelpers.contains s "2.50")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  (* Must not raise. *)
  ignore (Table.render t)

let test_float_cell () =
  Alcotest.(check string) "two decimals" "3.14" (Table.float_cell 3.14159);
  Alcotest.(check string) "nan spelled" "nan" (Table.float_cell Float.nan);
  Alcotest.(check string) "large integral" "12000" (Table.float_cell 12000.0)

(* ---------------- Durable ---------------- *)

let with_tmp_dir = Thelpers.with_tmp_dir

let write_raw path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_raw path = In_channel.with_open_bin path In_channel.input_all
let unlines lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* [p path committed torn] for the log [unlines lines] cut at every
   offset: [committed] are the lines whose newline precedes the cut,
   [torn] the bytes after the last one. *)
let every_cut lines p =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let s = unlines lines in
      List.for_all
        (fun c ->
          let prefix = String.sub s 0 c in
          write_raw path prefix;
          match List.rev (String.split_on_char '\n' prefix) with
          | torn :: rev -> p path (List.rev rev) torn
          | [] -> assert false)
        (List.init (String.length s + 1) Fun.id))

let gen_lines =
  QCheck2.Gen.(
    list_size (int_range 0 5)
      (string_size
         ~gen:(map (fun i -> Char.chr (if i = 10 then 0 else i)) (int_range 0 255))
         (int_range 0 8)))

let fold_all path =
  Durable.fold_log path ~init:[] (fun acc n l -> Ok ((n, l) :: acc))
  |> Result.map (fun (acc, torn) -> (List.rev acc, torn))

let numbered lines = List.mapi (fun i l -> (i + 1, l)) lines

let prop_fold_log_cuts =
  QCheck2.Test.make ~name:"Durable.fold_log folds exactly the committed lines"
    ~count:200 gen_lines (fun lines ->
      every_cut lines (fun path committed torn ->
          fold_all path
          = Ok
              ( numbered committed,
                if torn = "" then None
                else Some (List.length committed + 1, torn) )))

let prop_append_cuts_torn_tail =
  QCheck2.Test.make ~name:"Durable.append after a cut commits a line of its own"
    ~count:200 gen_lines (fun lines ->
      every_cut lines (fun path committed _ ->
          Durable.with_log path (fun log -> Durable.append log "new");
          read_raw path = unlines (committed @ [ "new" ])
          && fold_all path = Ok (numbered (committed @ [ "new" ]), None)))

let prop_journal_load_cuts =
  QCheck2.Test.make ~name:"Journal.load keeps the committed cells of a cut"
    ~count:20
    QCheck2.Gen.(list_size (int_range 0 3) (float_range 0. 1e9))
    (fun runtimes ->
      let cells =
        List.mapi
          (fun i runtime_ns ->
            { Journal.point = Sweep_tune.Space.paper_point; bench = "sha";
              scale = 0.05; key = Printf.sprintf "k%d" i; runtime_ns;
              nvm_writes = i; completed = true; failed = false; error = "" })
          runtimes
      in
      every_cut (List.map Journal.line cells) (fun path committed torn ->
          match Journal.load path with
          | Ok (cells', warnings) ->
            List.map Journal.line cells' = committed
            && List.length warnings = if torn = "" then 0 else 1
          | Error _ -> false))

let prop_write_atomic_raise =
  QCheck2.Test.make
    ~name:"Durable.write_atomic keeps the old bytes when its writer raises"
    ~count:50 QCheck2.Gen.(pair string string) (fun (old_bytes, new_bytes) ->
      with_tmp_dir (fun dir ->
          let path = Filename.concat dir "f" in
          Durable.write_atomic path (fun oc -> output_string oc old_bytes);
          (match
             Durable.write_atomic path (fun oc ->
                 output_string oc new_bytes;
                 raise Exit)
           with
          | () -> false
          | exception Exit -> true)
          && read_raw path = old_bytes
          && Sys.readdir dir = [| "f" |]))

let test_durable_errors_name_target () =
  with_tmp_dir (fun dir ->
      let names target f =
        match f () with
        | () -> Alcotest.failf "%s: no error" target
        | exception Sys_error msg ->
          Alcotest.(check bool) (msg ^ " names " ^ target) true
            (String.starts_with ~prefix:(target ^ ": ") msg)
      in
      let missing = Filename.concat dir "missing/f" in
      names missing (fun () -> Durable.write_atomic missing ignore);
      names missing (fun () -> Durable.with_log missing ignore);
      write_raw (Filename.concat dir "file") "";
      let under_file = Filename.concat dir "file/sub" in
      names under_file (fun () -> Durable.mkdir_p under_file);
      let nested = Filename.concat dir "a/b/c" in
      Durable.mkdir_p nested;
      Alcotest.(check bool) "mkdir_p makes the parents" true
        (Sys.is_directory nested))

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_int_bounds; prop_float_bounds; prop_cdf_monotone;
      prop_fold_log_cuts; prop_append_cuts_torn_tail; prop_journal_load_cuts;
      prop_write_atomic_raise ]

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "mean/geomean basics" `Quick test_mean_geomean;
    Alcotest.test_case "geomean exact" `Quick test_geomean_exact;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "cdf_points edges" `Quick test_cdf_points_edges;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "ratio" `Quick test_ratio;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads" `Quick test_table_pads_short_rows;
    Alcotest.test_case "float cell" `Quick test_float_cell;
    Alcotest.test_case "durable errors name the target" `Quick
      test_durable_errors_name_target;
  ]
  @ qsuite
