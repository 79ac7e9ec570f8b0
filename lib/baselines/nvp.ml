module Cfg = Sweep_machine.Config
module Cost = Sweep_machine.Cost
module Cpu = Sweep_machine.Cpu
module Exec = Sweep_machine.Exec
module Acc = Sweep_machine.Exec.Acc
module Mstats = Sweep_machine.Mstats
module Nvm = Sweep_mem.Nvm
module E = Sweep_energy.Energy_config

let name = "NVP"

type t = {
  cfg : Cfg.t;
  prog : Sweep_isa.Program.t;
  dec : Sweep_isa.Decoded.t;
  cpu : Cpu.t;
  nvm : Nvm.t;
  stats : Mstats.t;
  acc : Acc.t;
  mutable ops : Exec.mem_ops;
  detector : Sweep_energy.Detector.t;
  mutable shadow : (int array * int) option; (* NVFF register checkpoint *)
}

let e t = t.cfg.Cfg.energy

let make_ops t =
  let e = e t in
  let nvm_read_ns = e.E.nvm_read_ns
  and e_nvm_read = e.E.e_nvm_read
  and nvm_write_ns = e.E.nvm_write_ns
  and e_nvm_write = e.E.e_nvm_write in
  let acc = t.acc and nvm = t.nvm in
  (* Each access is one call, into [Nvm]; the cost is charged by field
     (a call to [Acc.charge] would not be inlined). *)
  Exec.nop_region_ops
    {
      Exec.load =
        (fun addr ->
          acc.Acc.ns <- acc.Acc.ns +. nvm_read_ns;
          acc.Acc.joules <- acc.Acc.joules +. e_nvm_read;
          Nvm.read_word nvm addr);
      store =
        (fun addr value ->
          acc.Acc.ns <- acc.Acc.ns +. nvm_write_ns;
          acc.Acc.joules <- acc.Acc.joules +. e_nvm_write;
          Nvm.write_word nvm addr value);
      clwb = (fun _ -> ());
      fence = (fun () -> ());
      region_end = (fun () -> ());
    }

let create cfg prog =
  let nvm = Nvm.create () in
  Sweep_machine.Loader.load nvm prog;
  let detector =
    match cfg.Cfg.detector_override with
    | Some d -> d
    | None -> Sweep_energy.Detector.jit ~v_backup:2.9 ~v_restore:3.2
  in
  let t =
    {
      cfg;
      prog;
      dec = Sweep_isa.Decoded.compile prog;
      cpu = Cpu.create ~entry:prog.entry;
      nvm;
      stats = Mstats.create ();
      acc = (let a = Acc.create () in Acc.set_rates a cfg.Cfg.energy; a);
      ops = Exec.null_ops;
      detector;
      shadow = None;
    }
  in
  t.ops <- make_ops t;
  t

let cpu t = t.cpu
let nvm t = t.nvm
let cache _ = None
let mstats t = t.stats
let acc t = t.acc
let detector t = t.detector

let step t =
  if t.cfg.Cfg.reference_interp then
    Exec.step_reference t.cpu t.prog t.stats t.ops t.acc
  else Exec.step t.cpu t.dec t.stats t.ops t.acc

let jit_backup_cost t = Some (Jit_common.reg_backup (e t))

let commit_jit_backup t ~now_ns:_ = t.shadow <- Some (Cpu.snapshot t.cpu)

let continues_after_backup = false

let on_power_failure t ~now_ns:_ =
  Cpu.reset t.cpu ~entry:t.prog.entry;
  Mstats.reset_region_counters t.stats

let on_reboot t ~now_ns =
  (match t.shadow with
  | Some snap -> Cpu.restore t.cpu snap
  | None -> Cpu.reset t.cpu ~entry:t.prog.entry);
  if Sweep_obs.Sink.on () then
    Sweep_obs.Sink.emit ~ns:now_ns
      (Sweep_obs.Event.Mark
         { name = "restore regs"; cat = Sweep_obs.Event.Power });
  let cost = Jit_common.reg_restore (e t) in
  t.stats.Mstats.restore_events <- t.stats.Mstats.restore_events + 1;
  t.stats.Mstats.f.Mstats.restore_joules <- t.stats.Mstats.f.Mstats.restore_joules +. cost.Cost.joules;
  cost

let drain _ ~now_ns:_ = Cost.zero

type t_alias = t

let packed cfg prog =
  let m =
    (module struct
      type t = t_alias

      let name = name
      let create = create
      let cpu = cpu
      let nvm = nvm
      let cache = cache
      let mstats = mstats
      let acc = acc
      let detector = detector
      let step = step
      let jit_backup_cost = jit_backup_cost
      let commit_jit_backup = commit_jit_backup
      let continues_after_backup = continues_after_backup
      let on_power_failure = on_power_failure
      let on_reboot = on_reboot
      let drain = drain
    end : Sweep_machine.Machine_intf.S
      with type t = t_alias)
  in
  Sweep_machine.Machine_intf.Packed (m, create cfg prog)
