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
module Pb = Sweepcache_core.Persist_buffer

let name = "NvMR"

type saved_line = { base : int; data : int array; dirty : bool }

type shadow = {
  regs : int array;
  pc : int;
  lines : saved_line list;
}

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
  rename : Pb.t;  (** persistent renamed locations of the open epoch *)
  mutable shadow : shadow option;
}

let e t = t.cfg.Cfg.energy

(* Every store consults the renaming structures to detect a WAR
   dependence on the open epoch (NvMR's defining mechanism); this sits on
   the store path. *)
let rename_check_ns = 2.0

let dirty_saved_lines t =
  let acc = ref [] in
  Cache.iter_lines t.cache (fun li ->
      if Cache.valid t.cache li && Cache.dirty t.cache li then
        acc :=
          {
            base = Cache.line_addr t.cache li;
            data = Cache.copy_line_data t.cache li;
            dirty = true;
          }
          :: !acc);
  !acc

(* Commit the open epoch: drain renamed writes to their home locations
   and snapshot registers + dirty lines. *)
let epoch_commit_cost t =
  let entries = Pb.count t.rename in
  let dirty = List.length (dirty_saved_lines t) in
  Cost.(
    Jit_common.reg_backup (e t)
    ++ Jit_common.lines_backup (e t) ~parallel:t.cfg.Cfg.nvsram_parallel dirty
    ++ make
         ~ns:(float_of_int entries *. ((e t).E.nvm_read_ns +. (e t).E.nvm_write_ns))
         ~joules:
           (float_of_int entries
           *. ((e t).E.e_nvm_read +. (e t).E.e_nvm_line_write)))

let epoch_commit t =
  Pb.drain t.rename t.nvm;
  let regs, pc = Cpu.snapshot t.cpu in
  let lines = dirty_saved_lines t in
  (* Checkpointed lines land in NVM: count the write traffic. *)
  Nvm.add_external_writes t.nvm ~events:(List.length lines)
    ~bytes:(List.length lines * Layout.line_bytes);
  t.shadow <- Some { regs; pc; lines }

let make_ops t =
  let e = e t in
  let hit_ns = float_of_int e.E.cache_hit_cycles *. E.cycle_ns e
  and e_hit = e.E.e_cache_access in
  let nvm_read_ns = e.E.nvm_read_ns
  and e_nvm_read = e.E.e_nvm_read
  and nvm_write_ns = e.E.nvm_write_ns
  and e_nvm_line_write = e.E.e_nvm_line_write in
  (* NvMR's rename table is an indexed hardware map, so a miss lookup is
     a constant two-probe cost, unlike SweepCache's deliberately cheap
     sequential buffer scan. *)
  let lookup_ns = 2.0 *. e.E.buffer_search_ns
  and e_lookup = 2.0 *. e.E.e_buffer_search in
  let e_rename_check = e.E.e_buffer_search in
  (* Fill the victim way for [addr]: quarantine a dirty victim in the
     rename buffer (a full buffer forces an epoch commit first —
     structural hazard → backup), then fetch the newest line image from
     the rename buffer or NVM.  Charges the fill cost, grouped
     (evict ++ fetch) ++ hit like the legacy Cost chain, plus the
     caller's [extra_ns]/[extra_joules], and returns the way.  Acc.charge
     by hand: the call is not inlined, so the computed float arguments
     would be boxed. *)
  let fill addr ~extra_ns ~extra_joules =
    let cache = t.cache in
    let vi = Cache.victim cache addr in
    let evict_ns, evict_joules =
      if Cache.valid cache vi && Cache.dirty cache vi then begin
        let forced_ns, forced_joules =
          if Pb.count t.rename >= Pb.capacity t.rename then begin
            let c = epoch_commit_cost t in
            epoch_commit t;
            t.stats.Mstats.backup_events <- t.stats.Mstats.backup_events + 1;
            t.stats.Mstats.f.Mstats.backup_joules <-
              t.stats.Mstats.f.Mstats.backup_joules +. c.Cost.joules;
            (c.Cost.ns, c.Cost.joules)
          end
          else (0.0, 0.0)
        in
        Pb.push_from t.rename ~base:(Cache.line_addr cache vi)
          ~src:(Cache.data cache) ~src_pos:(Cache.data_pos cache vi);
        (forced_ns +. nvm_write_ns, forced_joules +. e_nvm_line_write)
      end
      else (0.0, 0.0)
    in
    let base = Layout.line_base addr in
    Cache.install_victim cache vi addr;
    let scanned =
      Pb.search_into t.rename base ~dst:(Cache.data cache)
        ~dst_pos:(Cache.data_pos cache vi)
    in
    let fetch_ns, fetch_joules =
      if scanned > 0 then (lookup_ns, e_lookup)
      else begin
        Nvm.read_line_into t.nvm base ~dst:(Cache.data cache)
          ~dst_pos:(Cache.data_pos cache vi);
        (lookup_ns +. nvm_read_ns, e_lookup +. e_nvm_read)
      end
    in
    let a = t.acc in
    a.Acc.ns <- a.Acc.ns +. (evict_ns +. fetch_ns +. hit_ns +. extra_ns);
    a.Acc.joules <-
      a.Acc.joules +. (evict_joules +. fetch_joules +. e_hit +. extra_joules);
    vi
  in
  let store_hit_ns = hit_ns +. rename_check_ns
  and e_store_hit = e_hit +. e_rename_check in
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
            let vi = fill addr ~extra_ns:0.0 ~extra_joules:0.0 in
            Cache.read_word t.cache vi addr
          end);
      store =
        (fun addr value ->
          let pos = Cache.lookup cache addr in
          if pos <> Cache.no_line then begin
            let li = pos lsr Cache.pos_line_shift in
            Array.unsafe_set data pos value;
            Array.unsafe_set cache.Cache.dirty li 1;
            Array.unsafe_set cache.Cache.dirty_region li (-1);
            acc.Acc.ns <- acc.Acc.ns +. store_hit_ns;
            acc.Acc.joules <- acc.Acc.joules +. e_store_hit
          end
          else begin
            Cache.record_miss t.cache;
            let vi =
              fill addr ~extra_ns:rename_check_ns ~extra_joules:e_rename_check
            in
            Cache.write_word t.cache vi addr value;
            Cache.set_dirty t.cache vi ~region:(-1)
          end);
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
    | None ->
      (* Backing up dirty cachelines needs an NVSRAM-class reserve; the
         design then keeps executing below the threshold (its defining
         advantage), gambling that a forced commit lands before death. *)
      Sweep_energy.Detector.jit ~v_backup:3.2 ~v_restore:3.4
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
      rename = Pb.create ~capacity:(max 1 cfg.Cfg.rename_entries);
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

let jit_backup_cost t = Some (epoch_commit_cost t)
let commit_jit_backup t ~now_ns =
  epoch_commit t;
  if Sweep_obs.Sink.on () then begin
    let lines =
      match t.shadow with Some { lines; _ } -> List.length lines | None -> 0
    in
    Sweep_obs.Sink.emit ~ns:now_ns (Sweep_obs.Event.Backup_lines { lines })
  end
let continues_after_backup = true

let on_power_failure t ~now_ns:_ =
  Cache.invalidate_all t.cache;
  (* Roll back the open epoch: discard the rename mapping. *)
  Pb.clear t.rename;
  Cpu.reset t.cpu ~entry:t.prog.entry;
  Mstats.reset_region_counters t.stats

let on_reboot t ~now_ns:_ =
  let cost =
    match t.shadow with
    | Some { regs; pc; lines } ->
      Cpu.restore t.cpu (regs, pc);
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
  t.stats.Mstats.f.Mstats.restore_joules <- t.stats.Mstats.f.Mstats.restore_joules +. cost.Cost.joules;
  cost

(* End of program: commit the open epoch and flush remaining dirty
   lines. *)
let drain t ~now_ns:_ =
  let c = epoch_commit_cost t in
  Pb.drain t.rename t.nvm;
  let dirty = Cache.dirty_lines t.cache in
  List.iter
    (fun li ->
      Nvm.write_line_from t.nvm (Cache.line_addr t.cache li)
        ~src:(Cache.data t.cache) ~src_pos:(Cache.data_pos t.cache li);
      Cache.clear_dirty t.cache li)
    dirty;
  let n = float_of_int (List.length dirty) in
  Cost.(
    c
    ++ make ~ns:(n *. (e t).E.nvm_write_ns)
         ~joules:(n *. (e t).E.e_nvm_line_write))

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
