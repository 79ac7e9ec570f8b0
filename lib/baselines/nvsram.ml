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

type saved_line = { base : int; data : int array; dirty : bool }

type shadow = {
  regs : int array;
  pc : int;
  lines : saved_line list;
}

type state = {
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
  mutable shadow : shadow option;
}

let e (t : state) = t.cfg.Cfg.energy

(* Standard write-back memory path (shared by NVSRAM and NVSRAM-E —
   only the backup scope differs): dirty victims go straight to their
   NVM home (no redo buffer here — crash consistency comes from the
   JIT backup of the whole cache). *)
let make_ops (t : state) =
  let e = e t in
  let hit_ns = float_of_int e.E.cache_hit_cycles *. E.cycle_ns e
  and e_hit = e.E.e_cache_access in
  let nvm_read_ns = e.E.nvm_read_ns
  and e_nvm_read = e.E.e_nvm_read
  and nvm_write_ns = e.E.nvm_write_ns
  and e_nvm_line_write = e.E.e_nvm_line_write in
  (* Fill the victim way for [addr]; charges (evict ++ read) ++ hit with
     the same grouping as the legacy Cost chain. *)
  let fill addr =
    let cache = t.cache in
    let vi = Cache.victim cache addr in
    let evict_ns, evict_joules =
      if Cache.valid cache vi && Cache.dirty cache vi then begin
        Nvm.write_line_from t.nvm (Cache.line_addr cache vi)
          ~src:(Cache.data cache) ~src_pos:(Cache.data_pos cache vi);
        (nvm_write_ns, e_nvm_line_write)
      end
      else (0.0, 0.0)
    in
    let base = Layout.line_base addr in
    Cache.install_victim cache vi addr;
    Nvm.read_line_into t.nvm base ~dst:(Cache.data cache)
      ~dst_pos:(Cache.data_pos cache vi);
    Acc.charge t.acc
      ~ns:(evict_ns +. nvm_read_ns +. hit_ns)
      ~joules:(evict_joules +. e_nvm_read +. e_hit);
    vi
  in
  let acc = t.acc and cache = t.cache in
  let data = cache.Cache.data in
  (* Hit paths: one [Cache.lookup] call, then plain loads and stores
     (DESIGN.md §7.5); a store hit dirties the line as [Cache.set_dirty]
     does. *)
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
            let li = fill addr in
            Cache.read_word t.cache li addr
          end);
      store =
        (fun addr value ->
          let pos = Cache.lookup cache addr in
          if pos <> Cache.no_line then begin
            let li = pos lsr Cache.pos_line_shift in
            Array.unsafe_set data pos value;
            Array.unsafe_set cache.Cache.dirty li 1;
            Array.unsafe_set cache.Cache.dirty_region li (-1);
            acc.Acc.ns <- acc.Acc.ns +. hit_ns;
            acc.Acc.joules <- acc.Acc.joules +. e_hit
          end
          else begin
            Cache.record_miss t.cache;
            let li = fill addr in
            Cache.write_word t.cache li addr value;
            Cache.set_dirty t.cache li ~region:(-1)
          end);
      clwb = (fun _ -> ());
      fence = (fun () -> ());
      region_end = (fun () -> ());
    }

module Make (P : sig
  val name : string
  val entire : bool
end) =
struct
  let name = P.name

  type t = state

  (* The backup threshold must reserve enough energy for the worst-case
     backup (§2.2): dirty-only backup reserves for a mostly-dirty cache
     at 3.2 V; entire-cache backup needs a deeper reserve, hence
     NVSRAM-E's higher thresholds. *)
  let v_backup, v_restore = if P.entire then (3.35, 3.45) else (3.2, 3.4)

  let create cfg prog =
    let nvm = Nvm.create () in
    Sweep_machine.Loader.load nvm prog;
    let detector =
      match cfg.Cfg.detector_override with
      | Some d -> d
      | None -> Sweep_energy.Detector.jit ~v_backup ~v_restore
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
  let acc (t : t) = t.acc
  let detector t = t.detector
  let e = e

  let step (t : t) =
    if t.cfg.Cfg.reference_interp then
      Exec.step_reference t.cpu t.prog t.stats t.ops t.acc
    else Exec.step t.cpu t.dec t.stats t.ops t.acc

  let lines_to_save t =
    let acc = ref [] in
    Cache.iter_lines t.cache (fun li ->
        if Cache.valid t.cache li && (P.entire || Cache.dirty t.cache li) then
          acc :=
            {
              base = Cache.line_addr t.cache li;
              data = Cache.copy_line_data t.cache li;
              dirty = Cache.dirty t.cache li;
            }
            :: !acc);
    !acc

  let jit_backup_cost t =
    let n = List.length (lines_to_save t) in
    Some
      Cost.(
        Jit_common.reg_backup (e t)
        ++ Jit_common.lines_backup (e t) ~parallel:t.cfg.Cfg.nvsram_parallel n)

  let commit_jit_backup t ~now_ns =
    let regs, pc = Cpu.snapshot t.cpu in
    let lines = lines_to_save t in
    (* The nonvolatile counterpart is NVM: its backup writes count. *)
    Nvm.add_external_writes t.nvm ~events:(List.length lines)
      ~bytes:(List.length lines * Layout.line_bytes);
    if Sweep_obs.Sink.on () then
      Sweep_obs.Sink.emit ~ns:now_ns
        (Sweep_obs.Event.Backup_lines { lines = List.length lines });
    t.shadow <- Some { regs; pc; lines }

  let continues_after_backup = false

  let on_power_failure t ~now_ns:_ =
    Cache.invalidate_all t.cache;
    Cpu.reset t.cpu ~entry:t.prog.entry;
    Mstats.reset_region_counters t.stats

  let on_reboot t ~now_ns =
    (* Mutation for the differential checker: the shadow SRAM restores
       the CPU but "loses" the checkpointed cache image.  Dirty lines
       that existed only in the cache at backup time are gone — their
       stores silently vanish, which the final-globals check must
       catch.  (A full cold restart would be idempotent for most
       workloads and therefore undetectable.) *)
    let drop_lines = t.cfg.Cfg.faults.Sweep_machine.Fault_model.skip_restore in
    if drop_lines && Sweep_obs.Sink.on () then
      Sweep_obs.Sink.emit ~ns:now_ns
        (Sweep_obs.Event.Mark
           { name = "mutation: skip restore"; cat = Sweep_obs.Event.Fault });
    let cost =
      match t.shadow with
      | Some { regs; pc; lines } ->
        Cpu.restore t.cpu (regs, pc);
        if not drop_lines then
          List.iter
            (fun saved ->
              let li = Cache.install t.cache saved.base saved.data in
              if saved.dirty then Cache.set_dirty t.cache li ~region:(-1))
            lines;
        Cost.(
          Jit_common.reg_restore (e t)
          ++ Jit_common.lines_restore (e t) ~parallel:t.cfg.Cfg.nvsram_parallel
               (List.length lines))
      | None ->
        Cpu.reset t.cpu ~entry:t.prog.entry;
        Jit_common.reg_restore (e t)
    in
    t.stats.Mstats.restore_events <- t.stats.Mstats.restore_events + 1;
    t.stats.Mstats.f.Mstats.restore_joules <-
      t.stats.Mstats.f.Mstats.restore_joules +. cost.Cost.joules;
    cost

  (* End of program: write back what is still dirty so the final NVM
     image is complete. *)
  let drain t ~now_ns:_ =
    let dirty = Cache.dirty_lines t.cache in
    List.iter
      (fun li ->
        Nvm.write_line_from t.nvm (Cache.line_addr t.cache li)
          ~src:(Cache.data t.cache) ~src_pos:(Cache.data_pos t.cache li);
        Cache.clear_dirty t.cache li)
      dirty;
    let n = float_of_int (List.length dirty) in
    Cost.make ~ns:(n *. (e t).E.nvm_write_ns)
      ~joules:(n *. (e t).E.e_nvm_line_write)

  let packed cfg prog =
    let m =
      (module struct
        type nonrec t = t

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
        with type t = t)
    in
    Sweep_machine.Machine_intf.Packed (m, create cfg prog)
end

module Dirty = Make (struct
  let name = "NVSRAM"
  let entire = false
end)

module Entire = Make (struct
  let name = "NVSRAM-E"
  let entire = true
end)