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

let name = "ReplayCache"

(* Single-field all-float record: flat representation, so mutating [v]
   does not allocate — unlike a mutable float field in the mixed [t]. *)
type fbox = { mutable v : float }

type shadow = {
  s_regs : int array;
  s_pc : int;
  s_replay : (int * int array) list;
      (** Dirty lines whose clwb had not yet executed at backup time:
          store integrity lets recovery replay those stores, which we
          model by reapplying the line images (costed as replay). *)
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
  pend : floatarray;
      (** completion times of in-flight clwbs, a ring buffer ordered
          oldest first (completion times are monotone); data reaches NVM
          eagerly, timing carried here *)
  mutable p_head : int;
  mutable p_count : int;
  queue_tail : fbox;  (** completion time of the newest clwb *)
  mutable shadow : shadow option;
}

let e t = t.cfg.Cfg.energy

(* Drop clwbs that have completed by [now].  Entries are sorted
   ascending, so this is a prefix drop. *)
(* Ring indices are always in [0, 2*cap): [p_head < cap] and
   [p_count <= cap] are invariants, so a compare-subtract wraps
   identically to [mod] without the hardware divide per queue op. *)
let[@inline] ring_wrap i cap = if i >= cap then i - cap else i

let sync t now =
  let cap = Float.Array.length t.pend in
  while t.p_count > 0 && Float.Array.get t.pend t.p_head <= now do
    t.p_head <- ring_wrap (t.p_head + 1) cap;
    t.p_count <- t.p_count - 1
  done

(* Hot-path variant reading the clock from the accumulator: a float
   argument would be boxed at every call without flambda. *)
let sync_clock t =
  let now = t.acc.Acc.now in
  let cap = Float.Array.length t.pend in
  while t.p_count > 0 && Float.Array.get t.pend t.p_head <= now do
    t.p_head <- ring_wrap (t.p_head + 1) cap;
    t.p_count <- t.p_count - 1
  done

let newest_pending t ~default =
  if t.p_count = 0 then default
  else
    let cap = Float.Array.length t.pend in
    Float.Array.get t.pend (ring_wrap (t.p_head + t.p_count - 1) cap)

let clear_pending t =
  t.p_head <- 0;
  t.p_count <- 0

let make_ops t =
  let e = e t in
  let hit_ns = float_of_int e.E.cache_hit_cycles *. E.cycle_ns e
  and e_hit = e.E.e_cache_access in
  let nvm_read_ns = e.E.nvm_read_ns
  and e_nvm_read = e.E.e_nvm_read
  and nvm_write_ns = e.E.nvm_write_ns
  and e_nvm_line_write = e.E.e_nvm_line_write
  and clwb_drain_ns = e.E.clwb_drain_ns in
  (* Fill the victim way for [addr]; charges (evict ++ read) ++ hit.
     clwb cleans lines right after each store, so dirty victims are rare
     (a store whose clwb was the very last instruction before the miss);
     write them back synchronously. *)
  let fill addr =
    let cache = t.cache in
    let vi = Cache.victim cache addr in
    let dirty = Cache.valid cache vi && Cache.dirty cache vi in
    if dirty then
      Nvm.write_line_from t.nvm (Cache.line_addr cache vi)
        ~src:(Cache.data cache) ~src_pos:(Cache.data_pos cache vi);
    let evict_ns = if dirty then nvm_write_ns else 0.0
    and evict_joules = if dirty then e_nvm_line_write else 0.0 in
    let base = Layout.line_base addr in
    Cache.install_victim cache vi addr;
    Nvm.read_line_into t.nvm base ~dst:(Cache.data cache)
      ~dst_pos:(Cache.data_pos cache vi);
    (* Acc.charge by hand: the call is not inlined, so the computed
       float arguments would be boxed. *)
    let a = t.acc in
    a.Acc.ns <- a.Acc.ns +. (evict_ns +. nvm_read_ns +. hit_ns);
    a.Acc.joules <- a.Acc.joules +. (evict_joules +. e_nvm_read +. e_hit);
    vi
  in
  let acc = t.acc and cache = t.cache in
  let data = cache.Cache.data in
  (* Hit paths: the oldest pending clwb tested in place ([sync_clock]
     runs only once it has completed), one [Cache.lookup] call, then
     plain loads and stores (DESIGN.md §7.5); a store hit dirties the
     line as [Cache.set_dirty] does. *)
  {
    Exec.load =
      (fun addr ->
        if t.p_count > 0 && Float.Array.get t.pend t.p_head <= acc.Acc.now
        then sync_clock t;
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
        if t.p_count > 0 && Float.Array.get t.pend t.p_head <= acc.Acc.now
        then sync_clock t;
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
    clwb =
      (* Enqueue an asynchronous line write-back.  NVM contents update
         eagerly (values are identical either way); the completion time
         models the write bandwidth, and a full queue stalls the
         pipeline. *)
      (fun addr ->
        sync_clock t;
        let now0 = t.acc.Acc.now in
        let base = Layout.line_base addr in
        let stall =
          if t.p_count >= t.cfg.Cfg.replay_queue then
            if t.p_count > 0 then begin
              let oldest = Float.Array.get t.pend t.p_head in
              t.p_head <- ring_wrap (t.p_head + 1) (Float.Array.length t.pend);
              t.p_count <- t.p_count - 1;
              let d = oldest -. now0 in
              if d > 0.0 then d else 0.0
            end
            else 0.0
          else 0.0
        in
        let now = now0 +. stall in
        let li = Cache.find t.cache base in
        if li <> Cache.no_line then begin
          Nvm.write_line_from t.nvm base ~src:(Cache.data t.cache)
            ~src_pos:(Cache.data_pos t.cache li);
          Cache.clear_dirty t.cache li
        end;
        (* else: the line was evicted between the store and its clwb —
           cannot happen with adjacent instructions, but stay total. *)
        let tail = t.queue_tail.v in
        let done_at = (if now >= tail then now else tail) +. clwb_drain_ns in
        t.queue_tail.v <- done_at;
        (* push_pending inlined: a float argument would box per clwb. *)
        let cap = Float.Array.length t.pend in
        Float.Array.set t.pend (ring_wrap (t.p_head + t.p_count) cap) done_at;
        t.p_count <- t.p_count + 1;
        let a = t.acc in
        a.Acc.ns <- a.Acc.ns +. stall;
        a.Acc.joules <- a.Acc.joules +. e_nvm_line_write);
    fence =
      (fun () ->
        sync_clock t;
        let now = t.acc.Acc.now in
        (* newest_pending, inlined: float argument/return would box. *)
        let target =
          if t.p_count = 0 then now
          else
            Float.Array.get t.pend
              (ring_wrap (t.p_head + t.p_count - 1) (Float.Array.length t.pend))
        in
        let target = if target > now then target else now in
        let stall = target -. now in
        clear_pending t;
        t.stats.Mstats.f.Mstats.persistence_ns <-
          t.stats.Mstats.f.Mstats.persistence_ns +. stall;
        t.stats.Mstats.f.Mstats.wait_ns <-
          t.stats.Mstats.f.Mstats.wait_ns +. stall;
        let a = t.acc in
        a.Acc.ns <- a.Acc.ns +. stall);
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
      pend = Float.Array.make (max 1 cfg.Cfg.replay_queue) 0.0;
      p_head = 0;
      p_count = 0;
      queue_tail = { v = 0.0 };
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

let commit_jit_backup t ~now_ns =
  (* Stores whose clwb is still in flight at backup time will be
     "replayed" at recovery: count them now.  Dirty lines are stores
     whose clwb instruction had not even executed yet — store integrity
     covers them, so they join the replay set. *)
  sync t now_ns;
  t.stats.Mstats.replayed_stores <-
    t.stats.Mstats.replayed_stores + t.p_count;
  let s_replay =
    List.map
      (fun li -> (Cache.line_addr t.cache li, Cache.copy_line_data t.cache li))
      (Cache.dirty_lines t.cache)
  in
  let s_regs, s_pc = Cpu.snapshot t.cpu in
  t.shadow <- Some { s_regs; s_pc; s_replay }

let continues_after_backup = false

let on_power_failure t ~now_ns =
  sync t now_ns;
  Cache.invalidate_all t.cache;
  Cpu.reset t.cpu ~entry:t.prog.entry;
  Mstats.reset_region_counters t.stats

let on_reboot t ~now_ns =
  let replayed = ref t.p_count in
  clear_pending t;
  t.queue_tail.v <- 0.0;
  (match t.shadow with
  | Some { s_regs; s_pc; s_replay } ->
    Cpu.restore t.cpu (s_regs, s_pc);
    List.iter
      (fun (base, data) ->
        Nvm.write_line t.nvm base data;
        incr replayed)
      s_replay
  | None -> Cpu.reset t.cpu ~entry:t.prog.entry);
  (* Replay runs the recovery block: one NVM read (operands) and one NVM
     write per unpersisted store, sequentially (§2.2: slow recovery). *)
  let n = float_of_int !replayed in
  let cost =
    Cost.(
      Jit_common.reg_restore (e t)
      ++ make
           ~ns:(n *. ((e t).E.nvm_read_ns +. (e t).E.nvm_write_ns))
           ~joules:(n *. ((e t).E.e_nvm_read +. (e t).E.e_nvm_line_write)))
  in
  t.stats.Mstats.restore_events <- t.stats.Mstats.restore_events + 1;
  t.stats.Mstats.f.Mstats.restore_joules <- t.stats.Mstats.f.Mstats.restore_joules +. cost.Cost.joules;
  if Sweep_obs.Sink.on () then
    Sweep_obs.Sink.emit ~ns:now_ns
      (Sweep_obs.Event.Replay { stores = !replayed });
  cost

let drain t ~now_ns =
  let target = newest_pending t ~default:now_ns in
  let target = if target > now_ns then target else now_ns in
  clear_pending t;
  (* Any still-dirty lines (stores without a reached clwb cannot exist in
     Replay-mode programs, but examples may run Plain code here). *)
  let dirty = Cache.dirty_lines t.cache in
  List.iter
    (fun li ->
      Nvm.write_line_from t.nvm (Cache.line_addr t.cache li)
        ~src:(Cache.data t.cache) ~src_pos:(Cache.data_pos t.cache li);
      Cache.clear_dirty t.cache li)
    dirty;
  let n = float_of_int (List.length dirty) in
  Cost.make
    ~ns:(target -. now_ns +. (n *. (e t).E.nvm_write_ns))
    ~joules:(n *. (e t).E.e_nvm_line_write)

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
