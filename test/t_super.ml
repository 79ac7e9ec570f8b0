(* Supervision-layer tests: exit-code contract, wire-protocol framing
   (round-trip + torn-line robustness), the persistent result cache
   (hit/corruption/eviction, byte-identical serving), deterministic
   respawn backoff, and retry accounting in the status snapshot.

   End-to-end supervised execution (real worker processes, chaos
   kills) lives in CI's chaos job: workers re-exec the current binary,
   and the test runner is not a sweep binary, so process-level
   supervision cannot run in here. *)

module C = Sweep_exp.Exp_common
module Jobs = Sweep_exp.Jobs
module Results = Sweep_exp.Results
module Executor = Sweep_exp.Executor
module Status = Sweep_exp.Status
module Rcache = Sweep_exp.Rcache
module Wire = Sweep_exp.Wire
module Supervisor = Sweep_exp.Supervisor
module Exit_code = Sweep_exp.Exit_code
module A = Sweep_analyze

let check = Alcotest.check

let with_tmp_dir = Thelpers.with_tmp_dir

(* One real summary, simulated once and shared by every cache test. *)
let the_summary =
  lazy
    (C.compute ~scale:0.05 C.sweep_empty_bit
       ~power:Sweep_sim.Driver.Unlimited "sha")

let small_matrix () =
  Jobs.matrix ~exp:"t" ~scale:0.05
    [ C.setting Sweep_sim.Harness.Nvp; C.sweep_empty_bit ]
    [ "sha"; "dijkstra" ]

(* ---------------- exit codes ---------------- *)

let test_exit_codes () =
  check Alcotest.int "clean" 0 Exit_code.clean;
  check Alcotest.int "job_failures" 1 Exit_code.job_failures;
  check Alcotest.int "degraded" 2 Exit_code.degraded;
  check Alcotest.int "interrupted" 3 Exit_code.interrupted;
  check Alcotest.int "usage (EX_USAGE)" 64 Exit_code.usage;
  check Alcotest.int "ok run" Exit_code.clean
    (Exit_code.of_run ~degraded:false ~failures:0);
  check Alcotest.int "failures -> 1" Exit_code.job_failures
    (Exit_code.of_run ~degraded:false ~failures:3);
  check Alcotest.int "degraded -> 2" Exit_code.degraded
    (Exit_code.of_run ~degraded:true ~failures:0);
  check Alcotest.int "degraded outranks failures" Exit_code.degraded
    (Exit_code.of_run ~degraded:true ~failures:5)

(* ---------------- wire protocol ---------------- *)

let test_wire_hex () =
  let all = String.init 256 Char.chr in
  check Alcotest.string "hex round-trip" all (Wire.of_hex (Wire.to_hex all));
  check Alcotest.string "hex of abc" "616263" (Wire.to_hex "abc")

let test_wire_to_worker_roundtrip () =
  let job = List.hd (small_matrix ()) in
  let frames =
    [
      Wire.Init { heartbeat_every = 50_000; attrib_dir = None };
      Wire.Init { heartbeat_every = 0; attrib_dir = Some "/tmp/a \"b\"" };
      Wire.Job { key = Jobs.key job; spec = job; sim_budget_ns = None };
      Wire.Job { key = Jobs.key job; spec = job; sim_budget_ns = Some 1.5e9 };
      Wire.Quit;
    ]
  in
  List.iter
    (fun f ->
      let line = Wire.line_of_to_worker f in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Wire.to_worker_of_line line with
      | None -> Alcotest.fail ("undecodable: " ^ line)
      | Some f' ->
        if f' <> f then Alcotest.fail ("round-trip changed: " ^ line))
    frames

let test_wire_from_worker_roundtrip () =
  let summary = Lazy.force the_summary in
  let frames =
    [
      Wire.Beat
        { key = "k|1"; instructions = 123_456; sim_ns = 1.5e9; reboots = 7;
          nvm_writes = 4096; beats = 3 };
      Wire.Done { key = "k|1"; elapsed_s = 0.125; summary };
      Wire.Failed
        { key = "k|1";
          error = "Failure(\"quotes \\\" and\nnewlines\tand \\\\ slashes\")";
          backtrace = "Raised at line 1\nCalled from line 2\n" };
    ]
  in
  List.iter
    (fun f ->
      let line = Wire.line_of_from_worker f in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match Wire.from_worker_of_line line with
      | None -> Alcotest.fail ("undecodable: " ^ line)
      | Some f' ->
        if f' <> f then Alcotest.fail ("round-trip changed: " ^ line))
    frames

(* A worker killed mid-write leaves a torn final line; every prefix of
   a valid frame must decode to None, never crash or misparse. *)
let test_wire_torn_lines () =
  let summary = Lazy.force the_summary in
  let line =
    Wire.line_of_from_worker
      (Wire.Done { key = "k|1"; elapsed_s = 0.125; summary })
  in
  for len = 0 to min 300 (String.length line - 1) do
    match Wire.from_worker_of_line (String.sub line 0 len) with
    | None -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "prefix of %d decoded" len)
  done;
  check Alcotest.bool "garbage" true
    (Wire.from_worker_of_line "not json at all" = None);
  check Alcotest.bool "wrong shape" true
    (Wire.from_worker_of_line "{\"type\":\"warp\"}" = None);
  check Alcotest.bool "to_worker garbage" true
    (Wire.to_worker_of_line "{\"type\":\"job\"}" = None)

(* ---------------- result cache ---------------- *)

let bytes_of_summary (s : Results.summary) = Marshal.to_string s []

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rce")
  |> List.map (Filename.concat dir)

let test_rcache_hit () =
  with_tmp_dir (fun dir ->
      let summary = Lazy.force the_summary in
      let rc = Rcache.create dir in
      let key = "job|key" and digest = "deadbeef" in
      check Alcotest.bool "cold miss" true
        (Rcache.find rc ~key ~digest = None);
      Rcache.store rc ~key ~digest ~elapsed_s:0.25 summary;
      (match Rcache.find rc ~key ~digest with
      | None -> Alcotest.fail "stored entry missed"
      | Some (s, elapsed_s) ->
        check (Alcotest.float 0.0) "elapsed_s preserved" 0.25 elapsed_s;
        check Alcotest.string "summary byte-identical"
          (bytes_of_summary summary) (bytes_of_summary s));
      (* Different digest for the same key must never alias. *)
      check Alcotest.bool "digest mismatch is a miss" true
        (Rcache.find rc ~key ~digest:"cafebabe" = None);
      let s = Rcache.stats rc in
      check Alcotest.int "hits" 1 s.Rcache.hits;
      check Alcotest.int "misses" 2 s.Rcache.misses;
      check Alcotest.int "corrupt" 0 s.Rcache.corrupt)

let corrupt_test ~label ~mangle =
  with_tmp_dir (fun dir ->
      let summary = Lazy.force the_summary in
      let rc = Rcache.create dir in
      let key = "job|key" and digest = "deadbeef" in
      Rcache.store rc ~key ~digest ~elapsed_s:0.25 summary;
      (match entry_files dir with
      | [ path ] -> mangle path
      | files ->
        Alcotest.fail (Printf.sprintf "%d entry files" (List.length files)));
      check Alcotest.bool (label ^ " is a miss") true
        (Rcache.find rc ~key ~digest = None);
      let s = Rcache.stats rc in
      check Alcotest.int (label ^ " counted corrupt") 1 s.Rcache.corrupt;
      check Alcotest.int (label ^ " leaves no entry") 0
        (List.length (entry_files dir));
      (* Re-store (the caller re-simulates) and the cache serves the
         same bytes again: corruption never taints later results. *)
      Rcache.store rc ~key ~digest ~elapsed_s:0.25 summary;
      match Rcache.find rc ~key ~digest with
      | None -> Alcotest.fail "re-stored entry missed"
      | Some (s2, _) ->
        check Alcotest.string "re-served bytes identical"
          (bytes_of_summary summary) (bytes_of_summary s2))

let test_rcache_truncated () =
  corrupt_test ~label:"truncation" ~mangle:(fun path ->
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size / 2);
      Unix.close fd)

let test_rcache_bitflip () =
  corrupt_test ~label:"bit flip" ~mangle:(fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      (* Flip one bit in the middle of the marshalled payload. *)
      let i = n / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc)

let test_rcache_header_garbage () =
  corrupt_test ~label:"garbled header" ~mangle:(fun path ->
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
      output_string oc "XXXX";
      close_out oc)

(* A header claiming more payload than the file holds, up to [max_int],
   is a corrupt entry: rejected before the read buffer is allocated. *)
let test_rcache_forged_size () =
  corrupt_test ~label:"forged payload size" ~mangle:(fun path ->
      let ic = open_in_bin path in
      let header = input_line ic in
      let rest = really_input_string ic (in_channel_length ic - pos_in ic) in
      close_in ic;
      let forged =
        Scanf.sscanf header
          "{\"schema_version\":%d,\"payload_bytes\":%d,\"payload_md5\":%S}"
          (fun v _ md5 ->
            Printf.sprintf
              "{\"schema_version\":%d,\"payload_bytes\":%d,\"payload_md5\":%S}"
              v max_int md5)
      in
      let oc = open_out_bin path in
      output_string oc (forged ^ "\n" ^ rest);
      close_out oc)

let test_rcache_eviction () =
  with_tmp_dir (fun dir ->
      let summary = Lazy.force the_summary in
      let probe = Rcache.create dir in
      Rcache.store probe ~key:"probe" ~digest:"d" ~elapsed_s:0.1 summary;
      let entry_bytes =
        match entry_files dir with
        | [ path ] -> (Unix.stat path).Unix.st_size
        | _ -> Alcotest.fail "probe store"
      in
      List.iter Sys.remove (entry_files dir);
      (* Room for two entries; store four with distinct mtimes. *)
      let rc = Rcache.create ~max_bytes:((2 * entry_bytes) + 16) dir in
      List.iter
        (fun key ->
          Rcache.store rc ~key ~digest:"d" ~elapsed_s:0.1 summary;
          Unix.sleepf 0.02)
        [ "k0"; "k1"; "k2"; "k3" ];
      let s = Rcache.stats rc in
      check Alcotest.int "evictions" 2 s.Rcache.evictions;
      check Alcotest.int "two entries remain" 2
        (List.length (entry_files dir));
      let total =
        List.fold_left
          (fun acc p -> acc + (Unix.stat p).Unix.st_size)
          0 (entry_files dir)
      in
      Alcotest.(check bool) "directory bounded" true
        (total <= (2 * entry_bytes) + 16);
      (* Oldest evicted, newest kept. *)
      check Alcotest.bool "k0 evicted" true
        (Rcache.find rc ~key:"k0" ~digest:"d" = None);
      check Alcotest.bool "k3 kept" true
        (Rcache.find rc ~key:"k3" ~digest:"d" <> None))

let test_rcache_config_digest () =
  let d1 = Rcache.config_digest C.sweep_empty_bit in
  let d2 = Rcache.config_digest C.sweep_empty_bit in
  let d3 = Rcache.config_digest C.sweep_nvm_search in
  check Alcotest.string "digest stable" d1 d2;
  Alcotest.(check bool) "digest separates configs" true (d1 <> d3)

(* ---------------- deterministic backoff ---------------- *)

let test_backoff_deterministic () =
  let p = Supervisor.policy ~seed:7 ~workers:3 () in
  let schedule policy =
    List.concat_map
      (fun slot ->
        List.map
          (fun nth -> Supervisor.backoff_delay_s policy ~slot ~nth)
          [ 0; 1; 2; 3; 4; 5 ])
      [ 0; 1; 2 ]
  in
  let a = schedule p in
  check (Alcotest.list (Alcotest.float 0.0)) "identical across calls" a
    (schedule p);
  (* Pure in (seed, slot, nth): the worker count and every other policy
     knob are irrelevant, so -j / --workers cannot perturb it. *)
  let p8 =
    Supervisor.policy ~seed:7 ~workers:8 ~retries:9 ~worker_timeout_s:1.0
      ~respawn_budget:99 ()
  in
  check (Alcotest.list (Alcotest.float 0.0)) "independent of worker count" a
    (schedule p8);
  let pseed = Supervisor.policy ~seed:8 ~workers:3 () in
  Alcotest.(check bool) "seed changes the schedule" true (a <> schedule pseed);
  (* Exponential envelope with bounded jitter: base*2^nth <= delay <=
     1.5 * min(base*2^nth, max). *)
  List.iter
    (fun slot ->
      List.iter
        (fun nth ->
          let d = Supervisor.backoff_delay_s p ~slot ~nth in
          let base =
            Float.min p.Supervisor.backoff_max_s
              (p.Supervisor.backoff_base_s *. (2.0 ** float_of_int nth))
          in
          Alcotest.(check bool)
            (Printf.sprintf "slot %d nth %d in envelope" slot nth)
            true
            (d >= base && d <= 1.5 *. base))
        [ 0; 1; 2; 3; 4; 5; 10 ])
    [ 0; 1; 2 ];
  let d0 = Supervisor.backoff_delay_s p ~slot:0 ~nth:0 in
  let d5 = Supervisor.backoff_delay_s p ~slot:0 ~nth:5 in
  Alcotest.(check bool) "grows with nth" true (d5 > d0)

(* ---------------- status retry accounting ---------------- *)

let test_status_retried () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "status.json" in
      let st = Status.create ~path ~interval_s:0.0 ~workers:2 () in
      Status.add_total st 2;
      Status.job_started st ~key:"a";
      (* a's worker died: back to the queue, then runs again. *)
      Status.job_retried st ~key:"a";
      Status.job_started st ~key:"a";
      Status.job_finished st ~key:"a" ~ok:true ~elapsed_s:0.1 ~sim_ns:1e9;
      Status.job_started st ~key:"b";
      Status.job_finished st ~key:"b" ~ok:true ~elapsed_s:0.1 ~sim_ns:1e9;
      Status.write st;
      match A.Status_file.load path with
      | Error e -> Alcotest.fail e
      | Ok t ->
        check Alcotest.int "retried" 1 t.A.Status_file.retried;
        check Alcotest.int "done" 2 t.A.Status_file.done_;
        check Alcotest.int "queued" 0 t.A.Status_file.queued;
        check (Alcotest.list Alcotest.string) "internally consistent" []
          (A.Status_file.validate t))

(* ---------------- executor + cache integration ---------------- *)

(* A warm cache must change nothing but the work done: identical
   results-store snapshots and identical serialized result lines, with
   every job served from the cache on the second pass. *)
let test_executor_warm_cache_identity () =
  with_tmp_dir (fun dir ->
      let jobs = small_matrix () in
      let sweep rc =
        Results.clear ();
        Executor.execute ~workers:2 ~config:(Executor.config ~rcache:rc ())
          jobs;
        Results.snapshot ()
      in
      let rc1 = Rcache.create dir in
      let snap1 = sweep rc1 in
      let s1 = Rcache.stats rc1 in
      check Alcotest.int "cold pass misses all" (List.length jobs)
        s1.Rcache.misses;
      check Alcotest.int "cold pass hits none" 0 s1.Rcache.hits;
      let rc2 = Rcache.create dir in
      let snap2 = sweep rc2 in
      let s2 = Rcache.stats rc2 in
      check Alcotest.int "warm pass hits all" (List.length jobs)
        s2.Rcache.hits;
      check Alcotest.int "warm pass misses none" 0 s2.Rcache.misses;
      check Alcotest.int "same result count" (List.length snap1)
        (List.length snap2);
      List.iter2
        (fun (k1, sum1) (k2, sum2) ->
          check Alcotest.string "same key" k1 k2;
          check Alcotest.string ("summary bytes for " ^ k1)
            (bytes_of_summary sum1) (bytes_of_summary sum2);
          (* The line the JSONL sink would emit, pinned ts. *)
          let line s =
            Results.json_line ~ts:0.0 ~exp:"t" ~key:k1 ~design:"d" ~label:"l"
              ~power:"p" ~bench:"b" ~scale:0.05 ~elapsed_s:1.0 s
          in
          check Alcotest.string ("json line for " ^ k1) (line sum1)
            (line sum2))
        snap1 snap2;
      Results.clear ())

let suite =
  [
    Alcotest.test_case "exit-code contract" `Quick test_exit_codes;
    Alcotest.test_case "wire hex round-trip" `Quick test_wire_hex;
    Alcotest.test_case "wire to_worker round-trip" `Quick
      test_wire_to_worker_roundtrip;
    Alcotest.test_case "wire from_worker round-trip" `Quick
      test_wire_from_worker_roundtrip;
    Alcotest.test_case "wire torn lines decode to None" `Quick
      test_wire_torn_lines;
    Alcotest.test_case "rcache store/hit byte-identical" `Quick
      test_rcache_hit;
    Alcotest.test_case "rcache truncated entry" `Quick test_rcache_truncated;
    Alcotest.test_case "rcache bit-flipped entry" `Quick test_rcache_bitflip;
    Alcotest.test_case "rcache garbled header" `Quick
      test_rcache_header_garbage;
    Alcotest.test_case "rcache forged payload size" `Quick
      test_rcache_forged_size;
    Alcotest.test_case "rcache LRU eviction" `Quick test_rcache_eviction;
    Alcotest.test_case "rcache config digest" `Quick
      test_rcache_config_digest;
    Alcotest.test_case "backoff deterministic" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "status retry accounting" `Quick test_status_retried;
    Alcotest.test_case "warm cache byte-identity" `Quick
      test_executor_warm_cache_identity;
  ]

(* `sweepexp cache stats` / `cache purge` maintenance surface. *)
let test_rcache_disk_stats_and_purge () =
  with_tmp_dir (fun dir ->
      let summary = Lazy.force the_summary in
      let rc = Rcache.create dir in
      check Alcotest.bool "empty cache stats" true
        (Rcache.disk_stats rc = (0, 0));
      List.iter
        (fun key -> Rcache.store rc ~key ~digest:"d" ~elapsed_s:0.1 summary)
        [ "a"; "b"; "c" ];
      let entries, bytes = Rcache.disk_stats rc in
      check Alcotest.int "three entries on disk" 3 entries;
      check Alcotest.bool "bytes counted" true (bytes > 0);
      let purged_entries, purged_bytes = Rcache.purge rc in
      check Alcotest.int "purge removes all" 3 purged_entries;
      check Alcotest.int "purge reports the bytes" bytes purged_bytes;
      check Alcotest.bool "cache now empty" true
        (Rcache.disk_stats rc = (0, 0));
      check Alcotest.bool "directory survives" true (Sys.is_directory dir);
      check Alcotest.int "no entry files left" 0
        (List.length (entry_files dir)))

let suite =
  suite
  @ [
      Alcotest.test_case "rcache disk stats + purge" `Quick
        test_rcache_disk_stats_and_purge;
    ]
