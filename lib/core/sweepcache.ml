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
module Sink = Sweep_obs.Sink
module Ev = Sweep_obs.Event

let name = "SweepCache"

(* All-float (flat): phase deadlines are rewritten at every region
   boundary, and a mutable float field in the mixed [buf] record would
   be boxed on each write. *)
type buf_times = {
  mutable p1_end : float;
  mutable p2_end : float;
  mutable fill_start : float;   (* when this buffer last became Filling *)
}

type buf_state =
  | Idle        (* free for the next region *)
  | Filling     (* owned by the executing region; taking write-backs *)
  | Phase1      (* region ended; dirty-line flush (s-phase1) in flight *)
  | Phase2      (* buffer sealed; drain to NVM (s-phase2) in flight *)

type buf = {
  pb : Persist_buffer.t;
  mutable state : buf_state;
  mutable seq : int;              (* region sequence number; -1 when idle *)
  bt : buf_times;
  pc : int array;                 (* line bases to mark clean at p1_end *)
  pw : int array;                 (* ... and the ways they were flushed from *)
  mutable pc_n : int;
}

(* All-float scratch record (flat representation, so field writes never
   allocate): the hot-path helpers below communicate times and costs
   through these fields instead of float arguments and returns, which
   the non-flambda compiler boxes at every call boundary. *)
type scr = {
  mutable clock : float;     (* [complete] target time *)
  mutable ev_ns : float;     (* [evict_for]: eviction cost *)
  mutable ev_joules : float;
  mutable ev_now : float;    (* [evict_for]: possibly-stalled clock *)
  mutable f_ns : float;      (* [consult]: line-fill cost *)
  mutable f_joules : float;
  mutable dma_free : float;  (* single DMA channel availability *)
  mutable dma_next : float;
      (* Earliest s-phase2 deadline in flight (+inf when none): a pass
         of the DMA engine is due once the clock reaches it.  Always <=
         the true earliest deadline (a conservative hint): a region end
         lowers it to the sealed buffer's deadline, and each pass
         recomputes the exact minimum.  s-phase1 deadlines are not
         tracked: their completion only cleans the flushed lines and
         moves the buffer to [Phase2], which its readers complete
         themselves (see [complete]). *)
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
  scr : scr;
  mutable ops : Exec.mem_ops;
  detector : Sweep_energy.Detector.t;
  bufs : buf array;
  mutable active : int;
  mutable region_seq : int;
  wbi : Wbi_table.t;              (* current region's dirty lines *)
  mutable miss_fill_sum : int;    (* Σ buffer occupancy at cache misses *)
  mutable miss_fill_n : int;
}

let cpu t = t.cpu
let nvm t = t.nvm
let cache t = Some t.cache
let mstats t = t.stats
let acc t = t.acc
let detector t = t.detector

let e t = t.cfg.Cfg.energy

(* The way holding line [base]: [way], where the line was last seen,
   when its tag still matches — a field check, no set scan — else
   whatever {!Cache.find} finds (the line was evicted and refilled
   since). *)
let[@inline] resident c base way =
  if Array.unsafe_get c.Cache.valid way = 1 && Array.unsafe_get c.Cache.base way = base
  then way
  else Cache.find c base

(* s-phase1 completion: mark the flush's lines clean; they stay resident
   (§4.2: the flushed data remain in the cache with dirty bits reset). *)
let clean_flushed t buf =
  let c = t.cache and seq = buf.seq in
  for k = 0 to buf.pc_n - 1 do
    let li = resident c (Array.unsafe_get buf.pc k) (Array.unsafe_get buf.pw k) in
    if
      li <> Cache.no_line
      && Array.unsafe_get c.Cache.dirty li = 1
      && Array.unsafe_get c.Cache.dirty_region li = seq
    then begin
      Array.unsafe_set c.Cache.dirty li 0;
      Array.unsafe_set c.Cache.dirty_region li (-1)
    end
  done;
  buf.pc_n <- 0

(* One pass of the background DMA engine at [t.scr.clock]: complete
   every phase whose deadline has passed, then recompute [dma_next].
   The clock is read from the scratch record — no float may cross the
   call.

   s-phase2 is eager: every access tests [dma_next] in place and runs a
   pass once it has passed, so a buffer's NVM writes land on the
   instruction during which its deadline passes, which the per-PC
   profiler, heartbeats and event streams all observe.  s-phase1 is
   lazy: it only clears the flushed lines' dirty bits and moves the
   buffer to [Phase2], so it waits for the next pass.  Its readers get
   the answer an eager engine would give:
   - a store hit on a prior region's dirty line stalls until [p1_end]
     if that is still ahead, else clears that one line in place;
   - evicting a prior region's dirty line, a power failure and the
     final drain force a pass; recovery's case split reads the phase;
   - the region-end flush skips other regions' lines, and its hand-over
     stall waits for [p2_end], by which a pass has run. *)
let complete t =
  let now = t.scr.clock in
  let bufs = t.bufs in
  for i = 0 to Array.length bufs - 1 do
    let buf = Array.unsafe_get bufs i in
    if buf.state = Phase1 && buf.bt.p1_end <= now then begin
      clean_flushed t buf;
      buf.state <- Phase2
    end;
    if buf.state = Phase2 && buf.bt.p2_end <= now then begin
      Persist_buffer.drain buf.pb t.nvm;
      buf.state <- Idle;
      buf.seq <- -1
    end
  done;
  (* The exact earliest deadline, accumulated in the flat scratch field
     (a [ref] would allocate per pass). *)
  t.scr.dma_next <- infinity;
  for i = 0 to Array.length bufs - 1 do
    let buf = Array.unsafe_get bufs i in
    match buf.state with
    | Phase1 | Phase2 ->
      if buf.bt.p2_end < t.scr.dma_next then t.scr.dma_next <- buf.bt.p2_end
    | Idle | Filling -> ()
  done

let active_buf t = t.bufs.(t.active)

(* Index of the buffer (if any) that still owns a given prior region;
   -1 when none.  Top-level recursion, immediate result: the option
   version allocated on every cross-region store and eviction. *)
let rec buf_idx_from bufs seq i =
  if i >= Array.length bufs then -1
  else if (Array.unsafe_get bufs i).seq = seq then i
  else buf_idx_from bufs seq (i + 1)

let buf_idx_of_seq t seq = buf_idx_from t.bufs seq 0

(* Region boundary (§3.2): seal the active buffer — flush the region's
   dirty lines into it and schedule both persistence phases on the DMA
   engine — then hand execution to the other buffer, stalling only if it
   has not finished its own s-phase2 (structural hazard, §3.3). *)
let region_end t =
  let now = t.acc.Acc.now in
  if now >= t.scr.dma_next then begin
    t.scr.clock <- now;
    complete t
  end;
  let cur = active_buf t in
  (* Flush the region's dirty lines (WBI marking order) into the buffer,
     recording each base and way so the s-phase1 completion can clear
     its dirty bit. *)
  let c = t.cache and w = t.wbi and seq = cur.seq in
  let flush_n = ref 0 in
  for k = 0 to w.Wbi_table.count - 1 do
    let base = Array.unsafe_get w.Wbi_table.bases k in
    let li = resident c base (Array.unsafe_get w.Wbi_table.ways k) in
    if
      li <> Cache.no_line
      && Array.unsafe_get c.Cache.dirty li = 1
      && Array.unsafe_get c.Cache.dirty_region li = seq
    then begin
      Persist_buffer.push_from cur.pb ~base ~src:c.Cache.data
        ~src_pos:(li lsl Cache.pos_line_shift);
      cur.pc.(!flush_n) <- base;
      cur.pw.(!flush_n) <- li;
      incr flush_n
    end
  done;
  let flush_n = !flush_n in
  cur.pc_n <- flush_n;
  Wbi_table.clear w;
  let peak = Persist_buffer.peak cur.pb in
  if peak > t.stats.Mstats.buffer_peak then t.stats.Mstats.buffer_peak <- peak;
  Nvm.add_external_writes t.nvm ~events:flush_n
    ~bytes:(flush_n * Layout.line_bytes);
  let total = Persist_buffer.count cur.pb in
  let dma_start = if now >= t.scr.dma_free then now else t.scr.dma_free in
  let p1_end = dma_start +. (float_of_int flush_n *. (e t).E.dma_line_ns) in
  let p2_end = p1_end +. (float_of_int total *. (e t).E.dma_line_ns) in
  cur.state <- Phase1;
  cur.bt.p1_end <- p1_end;
  cur.bt.p2_end <- p2_end;
  if p2_end < t.scr.dma_next then t.scr.dma_next <- p2_end;
  t.scr.dma_free <- p2_end;
  t.stats.Mstats.f.Mstats.persistence_ns <- t.stats.Mstats.f.Mstats.persistence_ns +. (p2_end -. now);
  (* Background-persistence energy is charged now; its time is carried by
     the completion timestamps. *)
  let background_joules =
    float_of_int (flush_n + total) *. (e t).E.e_dma_line
  in
  (* Hand over to the next buffer. *)
  let next_idx =
    let i = t.active + 1 in
    if i = Array.length t.bufs then 0 else i
  in
  let next = t.bufs.(next_idx) in
  let stall_ns =
    if next.state = Idle then 0.0
    else begin
      let target = if now >= next.bt.p2_end then now else next.bt.p2_end in
      let s = target -. now in
      t.scr.clock <- target;
      complete t;
      s
    end
  in
  t.stats.Mstats.f.Mstats.wait_ns <- t.stats.Mstats.f.Mstats.wait_ns +. stall_ns;
  assert (next.state = Idle);
  if Sink.on () then begin
    let cur_idx = t.active in
    Sink.emit ~ns:now (Ev.Region_end { seq = cur.seq; buf = cur_idx });
    Sink.emit ~ns:now
      (Ev.Buf_phase
         {
           buf = cur_idx;
           seq = cur.seq;
           phase = Ev.Fill;
           start_ns = cur.bt.fill_start;
           end_ns = now;
         });
    Sink.emit ~ns:now
      (Ev.Buf_phase
         {
           buf = cur_idx;
           seq = cur.seq;
           phase = Ev.Flush;
           start_ns = dma_start;
           end_ns = p1_end;
         });
    Sink.emit ~ns:now
      (Ev.Buf_phase
         {
           buf = cur_idx;
           seq = cur.seq;
           phase = Ev.Drain;
           start_ns = p1_end;
           end_ns = p2_end;
         });
    if stall_ns > 0.0 then
      Sink.emit ~ns:now (Ev.Buf_wait { buf = next_idx; ns = stall_ns });
    Sink.emit ~ns:(now +. stall_ns)
      (Ev.Region_begin { seq = t.region_seq + 1; buf = next_idx })
  end;
  t.region_seq <- t.region_seq + 1;
  next.state <- Filling;
  next.seq <- t.region_seq;
  next.bt.fill_start <- now +. stall_ns;
  t.active <- next_idx;
  (* Acc.charge, inlined by hand: the call is not inlined by the
     non-flambda compiler, so computed float arguments would be boxed. *)
  let a = t.acc in
  a.Acc.ns <- a.Acc.ns +. stall_ns;
  a.Acc.joules <- a.Acc.joules +. background_joules

(* Make room for a fill: handle the victim line.  Prior-region dirty
   victims wait for their flush (then leave cleanly); current-region
   dirty victims are written back into the active persist buffer
   (t-phase1).  Returns the chosen victim way (the single set scan
   serves both eviction and install); the eviction cost and the
   possibly-stalled clock land in [t.scr]. *)
let evict_for t addr =
  let now = t.acc.Acc.now in
  let cache = t.cache in
  let vi = Cache.victim cache addr in
  t.scr.ev_ns <- 0.0;
  t.scr.ev_joules <- 0.0;
  t.scr.ev_now <- now;
  if Cache.valid cache vi && Cache.dirty cache vi then begin
    let region = Cache.dirty_region cache vi in
    if region <> (active_buf t).seq then begin
      (* A prior region's line leaves only once its flush is done: stall
         until its s-phase1 deadline if that is still ahead (§4.3), then
         run a pass, which completes that phase (lazily if it is already
         over) and so cleans the line. *)
      let bi = buf_idx_of_seq t region in
      let target =
        if bi >= 0 && t.bufs.(bi).state = Phase1 && now < t.bufs.(bi).bt.p1_end
        then t.bufs.(bi).bt.p1_end
        else now
      in
      t.scr.clock <- target;
      complete t;
      let stall = target -. now in
      t.scr.ev_ns <- stall;
      t.scr.ev_now <- now +. stall
    end
    else begin
      Persist_buffer.push_from (active_buf t).pb
        ~base:(Cache.line_addr cache vi) ~src:(Cache.data cache)
        ~src_pos:(Cache.data_pos cache vi);
      if Sink.on () then
        Sink.emit ~ns:now
          (Ev.Cache_writeback { base = Cache.line_addr cache vi });
      (* The buffer is NVM-resident: this write-back is an NVM write. *)
      Nvm.add_external_writes t.nvm ~events:1 ~bytes:Layout.line_bytes;
      let peak = Persist_buffer.peak (active_buf t).pb in
      if peak > t.stats.Mstats.buffer_peak then
        t.stats.Mstats.buffer_peak <- peak;
      t.scr.ev_ns <- (e t).E.nvm_write_ns;
      t.scr.ev_joules <- (e t).E.e_nvm_line_write
    end
  end;
  vi

(* Consult order (§4.4): the active (filling) buffer first, then the
   others newest-region-first — decreasing seq, ties in array order,
   exactly the stable sort the list-based implementation produced. *)
let rec best_unvisited bufs visited i best best_seq =
  if i >= Array.length bufs then best
  else begin
    let seq = (Array.unsafe_get bufs i).seq in
    if visited land (1 lsl i) = 0 && (best < 0 || seq > best_seq) then
      best_unvisited bufs visited (i + 1) i seq
    else best_unvisited bufs visited (i + 1) best best_seq
  end

let next_consult_buf t visited =
  if visited land (1 lsl t.active) = 0 then t.active
  else best_unvisited t.bufs visited 0 (-1) min_int

(* Probe the persist buffers for a missed line (honouring the empty-bit
   policy), falling back to the NVM home location.  The matched image is
   blitted straight into the cache data slot at [dst_pos]; fill costs
   accumulate left-to-right into [t.scr.f_ns]/[t.scr.f_joules].  Every
   argument is immediate, so the whole walk allocates nothing. *)
let rec consult t base ~dst_pos ~searched ~scanned ~visited =
  let bi = next_consult_buf t visited in
  if bi < 0 then begin
    (if searched then begin
       t.stats.Mstats.buffer_searches <- t.stats.Mstats.buffer_searches + 1;
       if Sink.on () then
         Sink.emit ~ns:t.scr.ev_now
           (Ev.Buffer_search { scanned; hit = false })
     end
     else begin
       t.stats.Mstats.buffer_bypasses <- t.stats.Mstats.buffer_bypasses + 1;
       if Sink.on () then Sink.emit ~ns:t.scr.ev_now Ev.Buffer_bypass
     end);
    Nvm.read_line_into t.nvm base ~dst:(Cache.data t.cache) ~dst_pos;
    t.scr.f_ns <- t.scr.f_ns +. (e t).E.nvm_read_ns;
    t.scr.f_joules <- t.scr.f_joules +. (e t).E.e_nvm_read
  end
  else begin
    let visited = visited lor (1 lsl bi) in
    let buf = t.bufs.(bi) in
    let searchable =
      match t.cfg.Cfg.search with
      | Cfg.Nvm_search -> true
      | Cfg.Empty_bit -> not (Persist_buffer.is_empty buf.pb)
    in
    if not searchable then consult t base ~dst_pos ~searched ~scanned ~visited
    else begin
      (* Even an unsuccessful sequential probe of an empty buffer costs
         one slot check in Nvm_search mode. *)
      let scanned_hit =
        Persist_buffer.search_into buf.pb base ~dst:(Cache.data t.cache)
          ~dst_pos
      in
      if scanned_hit > 0 then begin
        t.stats.Mstats.buffer_searches <- t.stats.Mstats.buffer_searches + 1;
        t.stats.Mstats.buffer_hits <- t.stats.Mstats.buffer_hits + 1;
        if Sink.on () then
          Sink.emit ~ns:t.scr.ev_now
            (Ev.Buffer_search { scanned = scanned + scanned_hit; hit = true });
        t.scr.f_ns <-
          t.scr.f_ns +. (float_of_int scanned_hit *. (e t).E.buffer_search_ns);
        t.scr.f_joules <-
          t.scr.f_joules
          +. (float_of_int scanned_hit *. (e t).E.e_buffer_search)
      end
      else begin
        let sc = max 1 (Persist_buffer.count buf.pb) in
        t.scr.f_ns <- t.scr.f_ns +. (float_of_int sc *. (e t).E.buffer_search_ns);
        t.scr.f_joules <-
          t.scr.f_joules +. (float_of_int sc *. (e t).E.e_buffer_search);
        consult t base ~dst_pos ~searched:true ~scanned:(scanned + sc) ~visited
      end
    end
  end

(* Fetch a line image for a miss straight into way [vi]'s data slot,
   consulting the persist buffers before NVM (§4.4). *)
let fetch_into t vi base =
  for i = 0 to Array.length t.bufs - 1 do
    t.miss_fill_sum <- t.miss_fill_sum + Persist_buffer.count t.bufs.(i).pb
  done;
  t.miss_fill_n <- t.miss_fill_n + 1;
  t.scr.f_ns <- 0.0;
  t.scr.f_joules <- 0.0;
  consult t base ~dst_pos:(Cache.data_pos t.cache vi) ~searched:false
    ~scanned:0 ~visited:0

let make_ops t =
  let e = e t in
  let hit_ns = float_of_int e.E.cache_hit_cycles *. E.cycle_ns e
  and e_hit = e.E.e_cache_access in
  let acc = t.acc and scr = t.scr and cache = t.cache in
  let data = cache.Cache.data in
  (* Hit paths: the DMA engine's deadline test in place (a pass runs
     only once an s-phase2 deadline has passed), one [Cache.lookup]
     call, then plain loads and stores (DESIGN.md §7.5). *)
  {
    Exec.load =
      (fun addr ->
        let now = acc.Acc.now in
        if now >= scr.dma_next then begin
          scr.clock <- now;
          complete t
        end;
        let pos = Cache.lookup cache addr in
        if pos <> Cache.no_line then begin
          acc.Acc.ns <- acc.Acc.ns +. hit_ns;
          acc.Acc.joules <- acc.Acc.joules +. e_hit;
          Array.unsafe_get data pos
        end
        else begin
          Cache.record_miss t.cache;
          if Sink.on () then
            Sink.emit ~ns:now (Ev.Cache_miss { addr; write = false });
          let vi = evict_for t addr in
          let base = Layout.line_base addr in
          Cache.install_victim t.cache vi addr;
          fetch_into t vi base;
          let a = t.acc in
          a.Acc.ns <- a.Acc.ns +. (t.scr.ev_ns +. t.scr.f_ns +. hit_ns);
          a.Acc.joules <-
            a.Acc.joules +. (t.scr.ev_joules +. t.scr.f_joules +. e_hit);
          Cache.read_word t.cache vi addr
        end);
    store =
      (fun addr value ->
        let now = acc.Acc.now in
        if now >= scr.dma_next then begin
          scr.clock <- now;
          complete t
        end;
        let pos = Cache.lookup cache addr in
        if pos <> Cache.no_line then begin
          let li = pos lsr Cache.pos_line_shift in
          let seq = (Array.unsafe_get t.bufs t.active).seq in
          let waw_ns =
            if
              Array.unsafe_get cache.Cache.dirty li = 1
              && Array.unsafe_get cache.Cache.dirty_region li <> seq
            then begin
              (* §4.3: the line belongs to a prior region.  Stall until
                 that region's flush (s-phase1) is done if it is still
                 in flight; either way the flush leaves this line clean,
                 so clear its dirty bit here, as the pass completing
                 s-phase1 would. *)
              let prior = Array.unsafe_get cache.Cache.dirty_region li in
              let bi = buf_idx_of_seq t prior in
              Array.unsafe_set cache.Cache.dirty li 0;
              Array.unsafe_set cache.Cache.dirty_region li (-1);
              if
                bi >= 0
                && t.bufs.(bi).state = Phase1
                && now < t.bufs.(bi).bt.p1_end
              then begin
                let target = t.bufs.(bi).bt.p1_end in
                if target >= scr.dma_next then begin
                  scr.clock <- target;
                  complete t
                end;
                let s = target -. now in
                t.stats.Mstats.f.Mstats.waw_stall_ns <-
                  t.stats.Mstats.f.Mstats.waw_stall_ns +. s;
                if Sink.on () then
                  Sink.emit ~ns:now (Ev.Waw_stall { seq = prior; ns = s });
                s
              end
              else 0.0
            end
            else 0.0
          in
          Array.unsafe_set data pos value;
          (* Set dirty, open-coded: the branch above has cleaned any
             prior region's line, so a dirty line is this region's. *)
          if Array.unsafe_get cache.Cache.dirty li = 0 then begin
            Array.unsafe_set cache.Cache.dirty li 1;
            Array.unsafe_set cache.Cache.dirty_region li seq;
            Wbi_table.mark t.wbi (Array.unsafe_get cache.Cache.base li) ~way:li
          end
          else assert (Array.unsafe_get cache.Cache.dirty_region li = seq);
          acc.Acc.ns <- acc.Acc.ns +. (waw_ns +. hit_ns);
          acc.Acc.joules <- acc.Acc.joules +. e_hit
        end
        else begin
          Cache.record_miss t.cache;
          if Sink.on () then
            Sink.emit ~ns:now (Ev.Cache_miss { addr; write = true });
          let vi = evict_for t addr in
          let base = Layout.line_base addr in
          Cache.install_victim t.cache vi addr;
          fetch_into t vi base;
          Cache.write_word t.cache vi addr value;
          (* The fill came up clean: the line is this region's. *)
          Cache.set_dirty t.cache vi ~region:(active_buf t).seq;
          Wbi_table.mark t.wbi base ~way:vi;
          let a = t.acc in
          a.Acc.ns <- a.Acc.ns +. (t.scr.ev_ns +. t.scr.f_ns +. hit_ns);
          a.Acc.joules <-
            a.Acc.joules +. (t.scr.ev_joules +. t.scr.f_joules +. e_hit)
        end);
    clwb = (fun _ -> ());
    fence = (fun () -> ());
    region_end = (fun () -> region_end t);
  }

let create cfg prog =
  let nvm = Nvm.create () in
  Sweep_machine.Loader.load nvm prog;
  let bufs =
    Array.init (max 1 cfg.Cfg.buffer_count) (fun _ ->
        {
          pb = Persist_buffer.create ~capacity:cfg.Cfg.buffer_entries;
          state = Idle;
          seq = -1;
          bt = { p1_end = 0.0; p2_end = 0.0; fill_start = 0.0 };
          pc = Array.make (max 1 cfg.Cfg.buffer_entries) 0;
          pw = Array.make (max 1 cfg.Cfg.buffer_entries) 0;
          pc_n = 0;
        })
  in
  bufs.(0).state <- Filling;
  bufs.(0).seq <- 1;
  if Sink.on () then Sink.emit ~ns:0.0 (Ev.Region_begin { seq = 1; buf = 0 });
  let detector =
    match cfg.Cfg.detector_override with
    | Some d -> d
    | None -> Sweep_energy.Detector.sweep ~v_restore:3.3
  in
  let t =
    {
      cfg;
      prog;
      dec = Sweep_isa.Decoded.compile prog;
      cpu = Cpu.create ~entry:prog.entry;
      nvm;
      cache = Cache.create ~size_bytes:cfg.Cfg.cache_size_bytes ~assoc:cfg.Cfg.cache_assoc;
      stats = Mstats.create ();
      acc = (let a = Acc.create () in Acc.set_rates a cfg.Cfg.energy; a);
      scr =
        {
          clock = 0.0;
          ev_ns = 0.0;
          ev_joules = 0.0;
          ev_now = 0.0;
          f_ns = 0.0;
          f_joules = 0.0;
          dma_free = 0.0;
          dma_next = infinity;
        };
      ops = Exec.null_ops;
      detector;
      bufs;
      active = 0;
      region_seq = 1;
      wbi = Wbi_table.create ();
      miss_fill_sum = 0;
      miss_fill_n = 0;
    }
  in
  t.ops <- make_ops t;
  t

let step t =
  if t.cfg.Cfg.reference_interp then
    Exec.step_reference t.cpu t.prog t.stats t.ops t.acc
  else Exec.step t.cpu t.dec t.stats t.ops t.acc

let jit_backup_cost _ = None
let commit_jit_backup _ ~now_ns:_ = ()
let continues_after_backup = false

module FM = Sweep_machine.Fault_model

(* Fault model: a power failure cuts the in-flight s-phase2 DMA
   mid-line.  Entries already past the DMA engine land whole; the line
   in flight lands as a word prefix (Nvm.write_line_torn).  Recovery's
   idempotent re-drive rewrites every line whole, healing the tear —
   the differential checker proves exactly that.  Checker-only: writes
   extra NVM traffic, so it is gated on the torn_dma knob. *)
let tear_inflight_dma t ~now_ns =
  Array.iter
    (fun buf ->
      if buf.state = Phase2 then begin
        let entries = Persist_buffer.entries_oldest_first buf.pb in
        let n = List.length entries in
        if n > 0 then begin
          let k =
            let progress = (now_ns -. buf.bt.p1_end) /. (e t).E.dma_line_ns in
            max 0 (min (n - 1) (int_of_float (floor progress)))
          in
          List.iteri
            (fun i (base, data) ->
              if i < k then Nvm.write_line t.nvm base data
              else if i = k then begin
                (* Deterministic but varied tear point in [1, 15]. *)
                let words =
                  1 + ((buf.seq * 31) + (k * 7)) mod (Layout.words_per_line - 1)
                in
                Nvm.write_line_torn t.nvm base data ~words;
                if Sink.on () then
                  Sink.emit ~ns:now_ns (Ev.Fault_torn { base; words })
              end)
            entries
        end
      end)
    t.bufs

(* Mutation: a stuck-at-1 phase1Complete bit means recovery will
   re-drive a buffer whose flush was cut short.  The functional model's
   buffer already holds the whole dirty set (pushed eagerly at
   region_end), so make the physics real: truncate it to the eviction
   entries plus the prefix the DMA actually flushed before the cut. *)
let truncate_cut_flush t ~now_ns =
  Array.iter
    (fun buf ->
      if buf.state = Phase1 then begin
        let flush_n = buf.pc_n in
        if flush_n > 0 then begin
          let dma_line = (e t).E.dma_line_ns in
          let dma_start = buf.bt.p1_end -. (float_of_int flush_n *. dma_line) in
          let flushed_so_far =
            let f = (now_ns -. dma_start) /. dma_line in
            max 0 (min flush_n (int_of_float (floor f)))
          in
          let keep = Persist_buffer.count buf.pb - flush_n + flushed_so_far in
          Persist_buffer.truncate_to_oldest buf.pb ~keep
        end
      end)
    t.bufs

let on_power_failure t ~now_ns =
  (* A forced pass: recovery, the tear and the truncation read each
     buffer's true phase, including a lazily pending s-phase1. *)
  t.scr.clock <- now_ns;
  complete t;
  let fm = t.cfg.Cfg.faults in
  if fm.FM.torn_dma then tear_inflight_dma t ~now_ns;
  if fm.FM.stuck_phase1 then truncate_cut_flush t ~now_ns;
  (* Close the interrupted region's span: it will re-execute under a new
     sequence number after reboot. *)
  if Sink.on () then
    Sink.emit ~ns:now_ns
      (Ev.Region_end { seq = (active_buf t).seq; buf = t.active });
  Cache.invalidate_all t.cache;
  Wbi_table.clear t.wbi;
  Cpu.reset t.cpu ~entry:t.prog.entry;
  Mstats.reset_region_counters t.stats

(* Recovery protocol (§4.2): examine buffers in region order.
   - s-phase1 incomplete (state Filling/Phase1): (0,0) — discard.
   - s-phase1 complete, s-phase2 not (state Phase2): (1,0) — re-drive
     s-phase2 (idempotent redo).
   - both complete: nothing left in the buffer.
   Then reload the checkpointed registers and PC from NVM. *)
let on_reboot t ~now_ns =
  let fm = t.cfg.Cfg.faults in
  let ordered =
    Array.to_list t.bufs
    |> List.filter (fun b -> b.state <> Idle)
    |> List.sort (fun a b -> compare a.seq b.seq)
  in
  let index_of buf =
    let idx = ref 0 in
    Array.iteri (fun i b -> if b == buf then idx := i) t.bufs;
    !idx
  in
  let discarding = ref false in
  let redo_cost = ref Cost.zero in
  List.iter
    (fun buf ->
      (* What recovery *believes* about the phase-complete bits; a stuck
         bit makes it believe a phase finished that did not. *)
      let phase1_done =
        buf.state = Phase2 || fm.FM.stuck_phase1
      in
      let phase2_done = phase1_done && fm.FM.stuck_phase2 in
      if Sink.on () && fm.FM.stuck_phase1 && buf.state <> Phase2 then
        Sink.emit ~ns:now_ns
          (Ev.Fault_stuck { bit = 1; buf = index_of buf; seq = buf.seq });
      if Sink.on () && fm.FM.stuck_phase2 && phase1_done then
        Sink.emit ~ns:now_ns
          (Ev.Fault_stuck { bit = 2; buf = index_of buf; seq = buf.seq });
      (if phase1_done && phase2_done then
         (* Believed fully drained: nothing to redo — the entries are
            dropped on the floor (this is the mutation detecting a
            silent-green checker). *)
         Persist_buffer.clear buf.pb
       else if phase1_done && not !discarding then begin
         let n = Persist_buffer.count buf.pb in
         if Sink.on () then
           Sink.emit ~ns:now_ns
             (Ev.Mark
                {
                  name = Printf.sprintf "redo seq %d (%d lines)" buf.seq n;
                  cat = Sweep_obs.Event.Buffer;
                });
         Persist_buffer.drain buf.pb t.nvm;
         redo_cost :=
           Cost.(
             !redo_cost
             ++ make
                  ~ns:(float_of_int n *. (e t).E.dma_line_ns)
                  ~joules:(float_of_int n *. (e t).E.e_dma_line))
       end
       else begin
         discarding := true;
         if Sink.on () && Persist_buffer.count buf.pb > 0 then
           Sink.emit ~ns:now_ns
             (Ev.Mark
                {
                  name =
                    Printf.sprintf "discard seq %d (%d lines)" buf.seq
                      (Persist_buffer.count buf.pb);
                  cat = Sweep_obs.Event.Buffer;
                });
         Persist_buffer.clear buf.pb
       end);
      buf.state <- Idle;
      buf.seq <- -1;
      buf.pc_n <- 0)
    ordered;
  t.scr.dma_free <- now_ns;
  t.scr.dma_next <- infinity;
  (* Restore the architectural state from the checkpoint array. *)
  if fm.FM.skip_restore then begin
    (* Mutation: reboot "forgets" the checkpoint reload and restarts
       from program entry over the persisted NVM state. *)
    if Sink.on () then
      Sink.emit ~ns:now_ns
        (Ev.Mark { name = "mutation: skip restore"; cat = Ev.Fault })
  end
  else begin
    let layout = t.prog.layout in
    for r = 0 to Sweep_isa.Reg.count - 1 do
      t.cpu.Cpu.regs.(r) <- Nvm.read_word t.nvm (Layout.reg_slot layout r)
    done;
    t.cpu.Cpu.pc <- Nvm.read_word t.nvm layout.ckpt_pc
  end;
  t.cpu.Cpu.halted <- false;
  let reads = float_of_int (Sweep_isa.Reg.count + 1) in
  let restore_cost =
    Cost.make ~ns:(reads *. (e t).E.nvm_read_ns)
      ~joules:(reads *. (e t).E.e_nvm_read)
  in
  let total = Cost.(!redo_cost ++ restore_cost) in
  t.stats.Mstats.restore_events <- t.stats.Mstats.restore_events + 1;
  t.stats.Mstats.f.Mstats.restore_joules <- t.stats.Mstats.f.Mstats.restore_joules +. total.Cost.joules;
  (* Execution resumes in a fresh region on buffer 0. *)
  t.region_seq <- t.region_seq + 1;
  t.bufs.(0).state <- Filling;
  t.bufs.(0).seq <- t.region_seq;
  t.bufs.(0).bt.fill_start <- now_ns +. total.Cost.ns;
  t.active <- 0;
  if Sink.on () then
    Sink.emit ~ns:(now_ns +. total.Cost.ns)
      (Ev.Region_begin { seq = t.region_seq; buf = 0 });
  total

let drain t ~now_ns =
  if Sink.on () then
    Sink.emit ~ns:now_ns
      (Ev.Region_end { seq = (active_buf t).seq; buf = t.active });
  let finish = if now_ns >= t.scr.dma_free then now_ns else t.scr.dma_free in
  t.scr.clock <- finish;
  complete t;
  Cost.make ~ns:(finish -. now_ns) ~joules:0.0

let buffer_peak t = t.stats.Mstats.buffer_peak

let avg_buffer_fill_at_miss t =
  if t.miss_fill_n = 0 then 0.0
  else float_of_int t.miss_fill_sum /. float_of_int t.miss_fill_n

type t_alias = t

let pack instance =
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
  Sweep_machine.Machine_intf.Packed (m, instance)

let packed cfg prog = pack (create cfg prog)
