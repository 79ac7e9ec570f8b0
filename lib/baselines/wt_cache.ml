module Cfg = Sweep_machine.Config
module Cost = Sweep_machine.Cost
module Cpu = Sweep_machine.Cpu
module Exec = Sweep_machine.Exec
module Acc = Sweep_machine.Exec.Acc
module Mstats = Sweep_machine.Mstats
module Nvm = Sweep_mem.Nvm
module Cache = Sweep_mem.Cache
module E = Sweep_energy.Energy_config
module Layout = Sweep_isa.Layout

let name = "WT-VCache"

type t = {
  cfg : Cfg.t;
  prog : Sweep_isa.Program.t;
  dec : Sweep_isa.Decoded.t;
  cpu : Cpu.t;
  nvm : Nvm.t;
  cache : Cache.t;
  stats : Mstats.t;
  acc : Acc.t;
  mutable ops : Exec.mem_ops;
  detector : Sweep_energy.Detector.t;
  mutable shadow : (int array * int) option;
}

let e t = t.cfg.Cfg.energy

let make_ops t =
  let e = e t in
  let hit_ns = float_of_int e.E.cache_hit_cycles *. E.cycle_ns e
  and e_hit = e.E.e_cache_access in
  let miss_ns = e.E.nvm_read_ns +. hit_ns
  and e_miss = e.E.e_nvm_read +. e_hit in
  let nvm_write_ns = e.E.nvm_write_ns
  and e_nvm_write = e.E.e_nvm_write in
  let acc = t.acc and cache = t.cache in
  let data = cache.Cache.data in
  (* Hit paths: one [Cache.lookup] call, then plain loads and stores
     (DESIGN.md §7.5). *)
  Exec.nop_region_ops
    {
      Exec.load =
        (fun addr ->
          let pos = Cache.lookup cache addr in
          if pos <> Cache.no_line then begin
            acc.Acc.ns <- acc.Acc.ns +. hit_ns;
            acc.Acc.joules <- acc.Acc.joules +. e_hit;
            Array.unsafe_get data pos
          end
          else begin
            Cache.record_miss t.cache;
            (* Write-through lines are never dirty, so eviction is
               silent. *)
            let base = Layout.line_base addr in
            let vi = Cache.victim t.cache addr in
            Cache.install_victim t.cache vi addr;
            Nvm.read_line_into t.nvm base ~dst:(Cache.data t.cache)
              ~dst_pos:(Cache.data_pos t.cache vi);
            Acc.charge t.acc ~ns:miss_ns ~joules:e_miss;
            Cache.read_word t.cache vi addr
          end);
      store =
        (fun addr value ->
          (* Write-through, no-write-allocate: update the line if
             present, and always write NVM synchronously. *)
          let pos = Cache.lookup cache addr in
          if pos <> Cache.no_line then Array.unsafe_set data pos value
          else Cache.record_miss cache;
          Nvm.write_word t.nvm addr value;
          acc.Acc.ns <- acc.Acc.ns +. nvm_write_ns;
          acc.Acc.joules <- acc.Acc.joules +. e_nvm_write);
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
      cache =
        Cache.create ~size_bytes:cfg.Cfg.cache_size_bytes
          ~assoc:cfg.Cfg.cache_assoc;
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
let cache t = Some t.cache
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
  Cache.invalidate_all t.cache;
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
