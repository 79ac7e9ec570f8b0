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
  Wbi.mark w 0x100 ~way:3;
  Wbi.mark w 0x200 ~way:0;
  Wbi.mark w 0x100 ~way:5;
  check Alcotest.int "dedup" 2 w.Wbi.count;
  check (Alcotest.list Alcotest.int) "marking order" [ 0x100; 0x200 ] (Wbi.bases w);
  check Alcotest.int "first way kept" 3 w.Wbi.ways.(0);
  Wbi.clear w;
  check Alcotest.int "cleared" 0 w.Wbi.count

(* Model test: a persist buffer against an oldest-first list of
   (base, line) entries.  Pushes and searches use positions inside and
   just outside their 48-word arrays: a full buffer overflows first, a
   bad position raises [Invalid_argument] (a search only when it
   matches) and changes nothing.  Drains go to a real NVM, where the
   younger of two duplicates must land. *)
type pb_op =
  | Push of int * int   (* line id, src_pos *)
  | Search of int * int (* line id, dst_pos *)
  | Drain
  | Truncate of int     (* keep *)

let pb_op_gen =
  QCheck2.Gen.(
    let pos = oneof [ int_range 0 32; oneofl [ -1; 33; 48 ] ] in
    frequency
      [ (5, map2 (fun id p -> Push (id, p)) (int_range 0 5) pos);
        (4, map2 (fun id p -> Search (id, p)) (int_range 0 5) pos);
        (1, pure Drain);
        (1, map (fun k -> Truncate k) (int_range (-1) 9)) ])

let pb_op_print = function
  | Push (id, p) -> Printf.sprintf "push %d@%d" id p
  | Search (id, p) -> Printf.sprintf "search %d@%d" id p
  | Drain -> "drain"
  | Truncate k -> Printf.sprintf "truncate %d" k

let prop_pb_model =
  QCheck2.Test.make ~name:"persist buffer = list model" ~count:300
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map pb_op_print ops)))
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 1 40) pb_op_gen))
    (fun (capacity, ops) ->
      let pb = Pb.create ~capacity and nvm = Nvm.create () in
      let base id = 0x4000 + (id * 64) in
      let model = ref [] and peak = ref 0 and home = Hashtbl.create 8 in
      let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let in_range p = p >= 0 && p <= 32 in
      let step i op =
        match op with
        | Push (id, p) ->
          let src = Array.init 48 (fun k -> (i * 1000) + k) in
          if List.length !model = capacity then begin
            match Pb.push_from pb ~base:(base id) ~src ~src_pos:p with
            | () -> false
            | exception Pb.Overflow -> true
          end
          else if not (in_range p) then
            invalid (fun () -> Pb.push_from pb ~base:(base id) ~src ~src_pos:p)
          else begin
            Pb.push_from pb ~base:(base id) ~src ~src_pos:p;
            model := !model @ [ (base id, Array.sub src p 16) ];
            peak := max !peak (List.length !model);
            true
          end
        | Search (id, p) ->
          let dst = Array.make 48 (-7) in
          let untouched_outside lo hi =
            let ok = ref true in
            Array.iteri (fun k v -> if (k < lo || k >= hi) && v <> -7 then ok := false) dst;
            !ok
          in
          let rec find k = function
            | [] -> None
            | (b, d) :: rest -> if b = base id then Some (k, d) else find (k + 1) rest
          in
          (* Youngest first: the newest entry is one probe. *)
          begin match find 1 (List.rev !model) with
          | None ->
            Pb.search_into pb (base id) ~dst ~dst_pos:p = 0 && untouched_outside 0 0
          | Some _ when not (in_range p) ->
            invalid (fun () -> Pb.search_into pb (base id) ~dst ~dst_pos:p)
            && untouched_outside 0 0
          | Some (k, d) ->
            Pb.search_into pb (base id) ~dst ~dst_pos:p = k
            && Array.sub dst p 16 = d
            && untouched_outside p (p + 16)
          end
        | Drain ->
          let before = Nvm.write_events nvm in
          Pb.drain pb nvm;
          List.iter (fun (b, d) -> Hashtbl.replace home b d) !model;
          let n = List.length !model in
          model := [];
          Nvm.write_events nvm - before = n
          && Hashtbl.fold
               (fun b d ok ->
                 ok && Array.for_all2 ( = ) d (Nvm.image nvm ~lo:b ~hi:(b + 64)))
               home true
        | Truncate keep ->
          Pb.truncate_to_oldest pb ~keep;
          model := List.filteri (fun k _ -> k < keep) !model;
          true
      in
      let consistent () =
        Pb.count pb = List.length !model
        && Pb.is_empty pb = (!model = [])
        && Pb.peak pb = !peak
        && List.for_all2
             (fun (b, d) (b', d') -> b = b' && d = d')
             (Pb.entries_oldest_first pb) !model
      in
      List.for_all Fun.id (List.mapi (fun i op -> step i op && consistent ()) ops))

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
  @ [ QCheck_alcotest.to_alcotest prop_pb_model ]
