(* Tests for the SweepCache core: persist buffer, WBI table, and the
   machine's persistence/recovery protocol driven directly. *)
module Pb = Sweepcache_core.Persist_buffer
module Wbi = Sweepcache_core.Wbi_table
module Sweepcache = Sweepcache_core.Sweepcache
module M = Sweep_machine.Machine_intf
module Config = Sweep_machine.Config
module Cpu = Sweep_machine.Cpu
module Nvm = Sweep_mem.Nvm
module H = Sweep_sim.Harness
module Pipeline = Sweep_compiler.Pipeline
module Layout = Sweep_isa.Layout

let check = Alcotest.check
let line k = Array.make 16 k

let test_pb_fifo_and_search () =
  let pb = Pb.create ~capacity:4 in
  Alcotest.(check bool) "starts empty" true (Pb.is_empty pb);
  Pb.push pb ~base:0x100 ~data:(line 1);
  Pb.push pb ~base:0x200 ~data:(line 2);
  Pb.push pb ~base:0x100 ~data:(line 3);
  check Alcotest.int "count" 3 (Pb.count pb);
  (match Pb.search pb 0x100 with
  | Some (data, scanned) ->
    check Alcotest.int "youngest wins" 3 data.(0);
    check Alcotest.int "found first" 1 scanned
  | None -> Alcotest.fail "expected hit");
  (match Pb.search pb 0x200 with
  | Some (_, scanned) -> check Alcotest.int "second position" 2 scanned
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss" true (Pb.search pb 0x300 = None)

let test_pb_oldest_first_order () =
  let pb = Pb.create ~capacity:4 in
  Pb.push pb ~base:0x100 ~data:(line 1);
  Pb.push pb ~base:0x100 ~data:(line 2);
  (match Pb.entries_oldest_first pb with
  | [ (_, d1); (_, d2) ] ->
    check Alcotest.int "older first" 1 d1.(0);
    check Alcotest.int "younger last (overwrites on drain)" 2 d2.(0)
  | _ -> Alcotest.fail "expected two entries")

let test_pb_overflow () =
  let pb = Pb.create ~capacity:2 in
  Pb.push pb ~base:0 ~data:(line 0);
  Pb.push pb ~base:64 ~data:(line 1);
  Alcotest.check_raises "third push overflows" Pb.Overflow (fun () ->
      Pb.push pb ~base:128 ~data:(line 2))

let test_pb_clear_and_peak () =
  let pb = Pb.create ~capacity:8 in
  Pb.push pb ~base:0 ~data:(line 0);
  Pb.push pb ~base:64 ~data:(line 1);
  Pb.clear pb;
  Alcotest.(check bool) "cleared" true (Pb.is_empty pb);
  check Alcotest.int "peak survives clear" 2 (Pb.peak pb)

let test_pb_data_copied () =
  let pb = Pb.create ~capacity:2 in
  let d = line 7 in
  Pb.push pb ~base:0 ~data:d;
  d.(0) <- 99;
  match Pb.search pb 0 with
  | Some (found, _) -> check Alcotest.int "snapshot isolated" 7 found.(0)
  | None -> Alcotest.fail "expected hit"

let test_wbi () =
  let w = Wbi.create () in
  Wbi.mark w 0x100;
  Wbi.mark w 0x200;
  Wbi.mark w 0x100;
  check Alcotest.int "dedup" 2 (Wbi.count w);
  check (Alcotest.list Alcotest.int) "marking order" [ 0x100; 0x200 ] (Wbi.bases w);
  Wbi.clear w;
  check Alcotest.int "cleared" 0 (Wbi.count w)

(* ------------------------------------------------------------------ *)
(* Protocol tests on a real compiled program, driving the machine by
   hand so failures land at chosen points. *)

let compiled_tiny = lazy (H.compile H.Sweep (Thelpers.tiny_program ()))

let fresh_machine () =
  Sweepcache.create Config.default (Lazy.force compiled_tiny).Pipeline.program

let step_n t n =
  let acc = Sweepcache.acc t in
  let consumed = ref 0.0 in
  for _ = 1 to n do
    if not (Sweepcache.cpu t).Cpu.halted then begin
      acc.Sweep_machine.Exec.Acc.now <- !consumed;
      Sweepcache.step t;
      consumed := !consumed +. acc.Sweep_machine.Exec.Acc.ns
    end
  done;
  !consumed

let test_recovery_case_00 () =
  (* Crash mid-way through the very first region: nothing committed, so
     recovery restores the entry PC and zeroed registers. *)
  let t = fresh_machine () in
  let prog = (Lazy.force compiled_tiny).Pipeline.program in
  let now = step_n t 3 in
  Sweepcache.on_power_failure t ~now_ns:now;
  ignore (Sweepcache.on_reboot t ~now_ns:(now +. 1.0));
  let cpu = Sweepcache.cpu t in
  check Alcotest.int "pc back at entry" prog.Sweep_isa.Program.entry cpu.Cpu.pc;
  Alcotest.(check bool) "not halted" false cpu.Cpu.halted

let test_recovery_restores_checkpointed_registers () =
  (* Run until a few regions committed; crash; the restored registers
     must equal the NVM checkpoint slots, and the PC the checkpoint PC. *)
  let t = fresh_machine () in
  let now = step_n t 400 in
  Sweepcache.on_power_failure t ~now_ns:now;
  ignore (Sweepcache.on_reboot t ~now_ns:(now +. 5.0));
  let cpu = Sweepcache.cpu t in
  let nvm = Sweepcache.nvm t in
  let layout = (Lazy.force compiled_tiny).Pipeline.program.Sweep_isa.Program.layout in
  check Alcotest.int "pc from slot"
    (Nvm.peek_word nvm layout.Layout.ckpt_pc)
    cpu.Cpu.pc;
  for r = 0 to Sweep_isa.Reg.count - 1 do
    if r <> Sweep_isa.Reg.scratch2 then
      check Alcotest.int
        (Printf.sprintf "r%d from slot" r)
        (Nvm.peek_word nvm (Layout.reg_slot layout r))
        cpu.Cpu.regs.(r)
  done

let test_crash_then_completion_is_consistent () =
  (* Crash at many different depths; after recovery, running to the end
     must still produce the interpreter's memory image. *)
  let prog_ast = Thelpers.tiny_program () in
  let expected = Thelpers.interp_image prog_ast in
  List.iter
    (fun depth ->
      let compiled = H.compile H.Sweep prog_ast in
      let t = Sweepcache.create Config.default compiled.Pipeline.program in
      let now = step_n t depth in
      Sweepcache.on_power_failure t ~now_ns:now;
      let c = Sweepcache.on_reboot t ~now_ns:(now +. 10.0) in
      let resume = now +. 10.0 +. c.Sweep_machine.Cost.ns in
      let acc = Sweepcache.acc t in
      let consumed = ref resume in
      let guard = ref 0 in
      while (not (Sweepcache.cpu t).Cpu.halted) && !guard < 5_000_000 do
        acc.Sweep_machine.Exec.Acc.now <- !consumed;
        Sweepcache.step t;
        consumed := !consumed +. acc.Sweep_machine.Exec.Acc.ns;
        incr guard
      done;
      Alcotest.(check bool) "finished" true (Sweepcache.cpu t).Cpu.halted;
      ignore (Sweepcache.drain t ~now_ns:!consumed);
      let nvm = Sweepcache.nvm t in
      let actual =
        List.map
          (fun (name, base, words) ->
            ( name,
              Array.init words (fun k -> Nvm.peek_word nvm (base + (4 * k))) ))
          compiled.Pipeline.globals
      in
      if not (Thelpers.image_equal expected actual) then
        Alcotest.failf "inconsistent after crash at depth %d" depth)
    [ 1; 7; 42; 100; 333; 777; 1500 ]

let test_buffer_peak_bounded () =
  let r = Thelpers.assert_consistent H.Sweep (Thelpers.tiny_program ()) in
  let st = H.mstats r in
  Alcotest.(check bool) "peak within capacity" true
    (st.Sweep_machine.Mstats.buffer_peak
     <= Config.default.Config.buffer_entries)

let test_single_buffer_config_works () =
  let config = { Config.default with buffer_count = 1 } in
  ignore (Thelpers.assert_consistent ~config H.Sweep (Thelpers.tiny_program ()))

let test_nvm_search_config_works () =
  let config = Config.with_search Config.default Config.Nvm_search in
  ignore (Thelpers.assert_consistent ~config H.Sweep (Thelpers.tiny_program ()))

let test_region_persistence_writes_nvm () =
  (* After enough execution plus drain, checkpoint slots must hold data:
     region commits write through the persist buffer to NVM. *)
  let t = fresh_machine () in
  let now = step_n t 2000 in
  let _ = Sweepcache.drain t ~now_ns:now in
  let nvm = Sweepcache.nvm t in
  let layout = (Lazy.force compiled_tiny).Pipeline.program.Sweep_isa.Program.layout in
  Alcotest.(check bool) "pc slot updated beyond entry" true
    (Nvm.peek_word nvm layout.Layout.ckpt_pc
    <> (Lazy.force compiled_tiny).Pipeline.program.Sweep_isa.Program.entry)

let suite =
  [
    Alcotest.test_case "buffer fifo/search" `Quick test_pb_fifo_and_search;
    Alcotest.test_case "buffer drain order" `Quick test_pb_oldest_first_order;
    Alcotest.test_case "buffer overflow" `Quick test_pb_overflow;
    Alcotest.test_case "buffer clear/peak" `Quick test_pb_clear_and_peak;
    Alcotest.test_case "buffer copies data" `Quick test_pb_data_copied;
    Alcotest.test_case "wbi table" `Quick test_wbi;
    Alcotest.test_case "recovery case (0,0)" `Quick test_recovery_case_00;
    Alcotest.test_case "recovery restores slots" `Quick
      test_recovery_restores_checkpointed_registers;
    Alcotest.test_case "crash+resume consistent" `Quick
      test_crash_then_completion_is_consistent;
    Alcotest.test_case "buffer peak bounded" `Quick test_buffer_peak_bounded;
    Alcotest.test_case "single-buffer config" `Quick test_single_buffer_config_works;
    Alcotest.test_case "nvm-search config" `Quick test_nvm_search_config_works;
    Alcotest.test_case "persistence reaches NVM" `Quick
      test_region_persistence_writes_nvm;
  ]
