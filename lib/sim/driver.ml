module M = Sweep_machine.Machine_intf
module Cost = Sweep_machine.Cost
module Exec = Sweep_machine.Exec
module Mstats = Sweep_machine.Mstats
module Capacitor = Sweep_energy.Capacitor
module Detector = Sweep_energy.Detector
module Trace = Sweep_energy.Power_trace
module Sink = Sweep_obs.Sink
module Ev = Sweep_obs.Event
module Hb = Sweep_obs.Heartbeat
module Attrib = Sweep_obs.Attrib
module Nvm = Sweep_mem.Nvm
module Cache = Sweep_mem.Cache
module Cpu = Sweep_machine.Cpu

(* Per-PC attribution costs the cycle loop one branch when the
   profiler is off: the per-PC counters (count, time, energy, NVM
   writes, misses, stalls) and the machine-counter pre-reads they need
   sit behind a test of the hoisted [armed] flag.  The re-execution
   bookkeeping (epoch/stamp/delta) stays unconditional and indexes with
   [pc land at.mask] (-1 armed, 0 disabled — see {!Sweep_obs.Attrib}):
   a disabled sink tracks the since-last-commit instruction count in
   its slot 0 (every PC aliases there), which is exactly the whole-run
   discarded-work total — so the [Ev.Reexec] counter track is live in
   every traced run, profiler armed or not.  Cacheless designs
   attribute against a hoisted dummy cache whose miss counter never
   moves. *)
let dummy_cache () = Cache.create ~size_bytes:64 ~assoc:1

type power =
  | Unlimited
  | Harvested of {
      trace : Trace.t;
      capacitor_farads : float;
      v_max : float;
      v_min : float;
    }

let harvested ?(v_max = 3.5) ?(v_min = 2.8) ~trace ~farads () =
  Harvested { trace; capacitor_farads = farads; v_max; v_min }

type outcome = {
  completed : bool;
  on_ns : float;
  off_ns : float;
  outages : int;
  deaths : int;
  backups : int;
  failed_backups : int;
  compute_joules : float;
  backup_joules : float;
  restore_joules : float;
  quiescent_joules : float;
  instructions : int;
  injected_faults : int;
}

let total_ns o = o.on_ns +. o.off_ns

let total_joules o =
  o.compute_joules +. o.backup_joules +. o.restore_joules +. o.quiescent_joules

exception Stagnation of string

let ns_to_s ns = ns *. 1.0e-9

(* ------------------------------------------------------------------ *)
(* Fault-trigger bookkeeping.  [watch_fault] attaches a Sink spy for
   event triggers (sequential runs only) and keeps its detach closure;
   [fault_to_fire] is checked once per completed instruction of a run
   that has a fault plan. *)

type fault_watch = {
  fault : Fault.t option;
  mutable fired : bool;
  mutable event_pending : bool;
  mutable detach : (unit -> unit) option;
}

let watch_fault fault =
  let w = { fault; fired = false; event_pending = false; detach = None } in
  (match fault with
  | Some { Fault.trigger = Fault.At_event { tag; nth }; _ } ->
    let hits = ref 0 in
    w.detach <-
      Some
        (Sink.spy (fun ~ns:_ ev ->
             if (not w.fired) && (not w.event_pending) && Ev.tag ev = tag
             then begin
               incr hits;
               if !hits >= nth then w.event_pending <- true
             end))
  | Some _ | None -> ());
  w

let unwatch_fault w =
  Option.iter (fun d -> d ()) w.detach;
  w.detach <- None

let fault_to_fire w ~instructions =
  if w.fired then None
  else
    match w.fault with
    | None -> None
    | Some f -> (
      match f.Fault.trigger with
      | Fault.At_instruction n -> if instructions >= n then Some f else None
      | Fault.At_event _ -> if w.event_pending then Some f else None)

(* ------------------------------------------------------------------ *)

(* All-float mutable totals: mutating a float field of a flat float
   record writes in place, so the cycle loop allocates nothing.  (Float
   refs or a mixed record would box a fresh float per store.)  Every
   float the loop mutates per instruction lives here, nested inside the
   mixed {!state}. *)
type totals = {
  mutable now : float; (* ns *)
  mutable on_ns : float;
  mutable off_ns : float;
  mutable compute_joules : float;
  mutable backup_joules : float;
  mutable restore_joules : float;
  mutable quiescent_joules : float;
  mutable trace_p : float;
      (* Cached [Trace.power] sample for the hot loop, valid while
         [now < trace_edge].  The trace is a 100 µs zero-order hold and
         steps advance time by nanoseconds, so the sample only changes
         every ~10⁴–10⁵ instructions; caching turns the per-instruction
         lookup (float divide, truncation, integer modulo, array load)
         into one float compare. *)
  mutable trace_edge : float;
      (* Conservative lower bound (ns) on the next sample boundary:
         always <= the true edge, so a stale sample is never used; -inf
         initially and whenever nothing is cached.  Cold paths advance
         [now] without touching it — [now] is monotonic, so crossing the
         bound just forces a recompute. *)
}

(* A harvested run's energy source.  Unlimited power is a run without
   one: it skips the voltage state machine and the capacitor and trace
   arithmetic, and its outages recover instantly. *)
type supply = { trace : Trace.t; cap : Capacitor.t }

type state = {
  m : M.packed;
  supply : supply option;
  det : Detector.t;
  p_quiescent : float;
  at : Attrib.t;
  after_recovery : (now_ns:float -> unit) option;
      (* the differential checker's hook: observes the machine right
         after every recovery *)
  f : totals;
  mutable outages : int;
  mutable deaths : int;
  mutable backups : int;
  mutable failed_backups : int;
  mutable instructions : int;
  mutable backup_armed : bool;
  mutable injected_faults : int;
}

(* Longest a dead device may charge before the run stagnates. *)
let max_off_s = 120.0

(* Advance wall time by [ns] while powered on: harvest plus quiescent
   detector draw. *)
let pass_time_on s ns =
  if ns > 0.0 then begin
    (match s.supply with
    | Some sp ->
      let dt = ns_to_s ns in
      let pq = s.p_quiescent *. dt in
      Capacitor.consume sp.cap pq;
      s.f.quiescent_joules <- s.f.quiescent_joules +. pq;
      Capacitor.harvest sp.cap
        ~power_w:(Trace.power sp.trace (ns_to_s s.f.now))
        ~dt_s:dt
    | None -> ());
    s.f.now <- s.f.now +. ns;
    s.f.on_ns <- s.f.on_ns +. ns
  end

(* Dead/charging: integrate the trace at its own resolution until the
   voltage reaches [target]. *)
let charge_until s sp target =
  let dt = 1.0e-4 in
  let waited = ref 0.0 in
  let steps = ref 0 in
  while (not (Capacitor.above sp.cap target)) && !waited < max_off_s do
    (* Sample the recharge ramp sparsely for the voltage counter track. *)
    if Sink.on () && !steps mod 100 = 0 then
      Sink.emit ~ns:s.f.now (Ev.Voltage { volts = Capacitor.voltage sp.cap });
    incr steps;
    (* Apply the net power over the step: harvesting and the detector
       draw are simultaneous, so clamping at Vmax must see the
       difference, not harvest-then-consume (which would cap a small
       capacitor's steady state a whole quiescent-step below Vmax). *)
    let p = Trace.power sp.trace (ns_to_s s.f.now) in
    let net = p -. s.p_quiescent in
    if net >= 0.0 then Capacitor.harvest sp.cap ~power_w:net ~dt_s:dt
    else Capacitor.consume sp.cap (-.net *. dt);
    s.f.quiescent_joules <- s.f.quiescent_joules +. (s.p_quiescent *. dt);
    s.f.now <- s.f.now +. (dt *. 1.0e9);
    s.f.off_ns <- s.f.off_ns +. (dt *. 1.0e9);
    waited := !waited +. dt
  done;
  if not (Capacitor.above sp.cap target) then
    raise
      (Stagnation
         (Printf.sprintf
            "charging stalled: harvest cannot reach %.2f V (detector draw %.0f uW)"
            target (s.p_quiescent *. 1.0e6)))

(* Propagation delay: time passes with quiescent draw only. *)
let propagation_delay s sp ns state =
  let dt = ns_to_s ns in
  let pq = s.p_quiescent *. dt in
  Capacitor.consume sp.cap pq;
  s.f.quiescent_joules <- s.f.quiescent_joules +. pq;
  Capacitor.harvest sp.cap
    ~power_w:(Trace.power sp.trace (ns_to_s s.f.now))
    ~dt_s:dt;
  s.f.now <- s.f.now +. ns;
  match state with
  | `On -> s.f.on_ns <- s.f.on_ns +. ns
  | `Off -> s.f.off_ns <- s.f.off_ns +. ns

(* Power-down / charge / reboot sequence shared by JIT stops, hard
   deaths and injected faults.  Without a supply the off period is
   instantaneous: no charging, no propagation delay, 0 V reported at
   power-down, and the restore stamped where it ends. *)
let power_cycle s =
  s.outages <- s.outages + 1;
  let pc0 = (M.cpu s.m).Cpu.pc in
  let w0 = Nvm.write_events (M.nvm s.m) in
  let mi0 = match M.cache s.m with Some c -> Cache.misses c | None -> 0 in
  if Sink.on () then begin
    let volts =
      match s.supply with Some sp -> Capacitor.voltage sp.cap | None -> 0.0
    in
    Sink.emit ~ns:s.f.now (Ev.Power_down { volts })
  end;
  M.on_power_failure s.m ~now_ns:s.f.now;
  let discarded = Attrib.note_crash s.at ~pc:pc0 in
  if Sink.on () then Sink.emit ~ns:s.f.now (Ev.Reexec { discarded });
  (match s.supply with
  | Some sp ->
    charge_until s sp s.det.Detector.v_restore;
    propagation_delay s sp s.det.Detector.t_plh_ns `Off
  | None -> ());
  if Sink.on () then begin
    Sink.emit ~ns:s.f.now (Ev.Reboot { outage = s.outages });
    match s.supply with
    | Some sp ->
      Sink.emit ~ns:s.f.now (Ev.Voltage { volts = Capacitor.voltage sp.cap })
    | None -> ()
  end;
  let c = M.on_reboot s.m ~now_ns:s.f.now in
  (match s.supply with
  | Some sp -> Capacitor.consume sp.cap c.Cost.joules
  | None -> ());
  s.f.restore_joules <- s.f.restore_joules +. c.Cost.joules;
  let mi1 = match M.cache s.m with Some c -> Cache.misses c | None -> 0 in
  Attrib.note_cold s.at ~pc:pc0
    ~nvm_writes:(Nvm.write_events (M.nvm s.m) - w0)
    ~cache_misses:(mi1 - mi0) ~ns:c.Cost.ns ~restore_joules:c.Cost.joules ();
  if Sink.on () then begin
    let ns =
      match s.supply with Some _ -> s.f.now | None -> s.f.now +. c.Cost.ns
    in
    Sink.emit ~ns (Ev.Restore { joules = c.Cost.joules })
  end;
  pass_time_on s c.Cost.ns;
  s.backup_armed <- true;
  match s.after_recovery with Some f -> f ~now_ns:s.f.now | None -> ()

(* Commit a JIT backup at the current PC.  With a supply, the capacitor
   pays [cost]'s joules and [ns] passes ([cost]'s time, or 0 when an
   injected outage swallows it); without one the commit is free and
   uncounted, and only its NVM writes are charged to the PC. *)
let commit_backup s cost ~ns =
  let pc0 = (M.cpu s.m).Cpu.pc in
  let w0 = Nvm.write_events (M.nvm s.m) in
  M.commit_jit_backup s.m ~now_ns:s.f.now;
  Attrib.note_commit s.at;
  let nvm_writes = Nvm.write_events (M.nvm s.m) - w0 in
  match s.supply with
  | None -> Attrib.note_cold s.at ~pc:pc0 ~nvm_writes ()
  | Some sp ->
    Attrib.note_cold s.at ~pc:pc0 ~nvm_writes ~ns
      ~backup_joules:cost.Cost.joules ();
    Capacitor.consume sp.cap cost.Cost.joules;
    s.f.backup_joules <- s.f.backup_joules +. cost.Cost.joules;
    let mst = M.mstats s.m in
    mst.Mstats.backup_events <- mst.Mstats.backup_events + 1;
    mst.Mstats.f.Mstats.backup_joules <-
      mst.Mstats.f.Mstats.backup_joules +. cost.Cost.joules;
    pass_time_on s ns;
    s.backups <- s.backups + 1;
    if Sink.on () then
      Sink.emit ~ns:s.f.now (Ev.Backup { ok = true; joules = cost.Cost.joules })

let try_backup s sp =
  (* Detection propagation delay passes first (§2.2). *)
  propagation_delay s sp s.det.Detector.t_phl_ns `On;
  match M.jit_backup_cost s.m with
  | None -> assert false
  | Some cost ->
    let available = Capacitor.usable_above sp.cap (Capacitor.v_min sp.cap) in
    if cost.Cost.joules <= available then begin
      commit_backup s cost ~ns:cost.Cost.ns;
      true
    end
    else begin
      s.failed_backups <- s.failed_backups + 1;
      if Sink.on () then
        Sink.emit ~ns:s.f.now (Ev.Backup { ok = false; joules = cost.Cost.joules });
      false
    end

(* An injected crash behaves like a death at the crash point, except a
   JIT design first banks the backup its detector would have banked
   (the backup threshold sits above Vmin, so a crash with no fresh
   checkpoint is physically impossible under the detector model).  A
   harvested run charges the backup's joules but not its ns: the outage
   swallows it. *)
let inject s f ~trigger =
  s.injected_faults <- s.injected_faults + 1;
  (match M.jit_backup_cost s.m with
  | Some cost -> commit_backup s cost ~ns:0.0
  | None -> ());
  if Sink.on () then
    Sink.emit ~ns:s.f.now
      (Ev.Fault_inject { trigger; detail = Fault.describe f });
  power_cycle s

module Metrics = Sweep_obs.Metrics

(* Accumulate a finished run's outcome into the global metrics registry. *)
let publish_outcome (o : outcome) =
  if Metrics.enabled () then begin
    let c name v = Metrics.add (Metrics.counter name) v in
    c "driver.runs" 1;
    c "driver.outages" o.outages;
    c "driver.deaths" o.deaths;
    c "driver.backups" o.backups;
    c "driver.failed_backups" o.failed_backups;
    c "driver.instructions" o.instructions;
    Metrics.observe
      (Metrics.histogram "driver.on_fraction_pct"
         ~buckets:[| 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 |])
      (if total_ns o <= 0.0 then 100.0 else o.on_ns /. total_ns o *. 100.0)
  end

let run ?(max_instructions = 500_000_000) ?(max_sim_s = 600.0) ?sim_budget_ns
    ?fault ?after_recovery ?heartbeat ?attrib m ~power =
  let det = M.detector m in
  let supply =
    match power with
    | Unlimited -> None
    | Harvested { trace; capacitor_farads; v_max; v_min } ->
      Some
        { trace; cap = Capacitor.create ~farads:capacitor_farads ~v_max ~v_min }
  in
  let s =
    {
      m;
      supply;
      det;
      p_quiescent = Detector.quiescent_power_w det;
      at = (match attrib with Some a -> a | None -> Attrib.disabled ());
      after_recovery;
      f =
        {
          now = 0.0;
          on_ns = 0.0;
          off_ns = 0.0;
          compute_joules = 0.0;
          backup_joules = 0.0;
          restore_joules = 0.0;
          quiescent_joules = 0.0;
          trace_p = 0.0;
          trace_edge = Float.neg_infinity;
        };
      outages = 0;
      deaths = 0;
      backups = 0;
      failed_backups = 0;
      instructions = 0;
      backup_armed = true;
      injected_faults = 0;
    }
  in
  let acc = M.acc m in
  let at = s.at in
  let cpu = M.cpu m in
  let nvm = M.nvm m in
  let mst = M.mstats m in
  let acache = match M.cache m with Some c -> c | None -> dummy_cache () in
  let has_jit = M.jit_backup_cost m <> None in
  (* Hot-loop flattening: the per-instruction block below does all its
     capacitor/trace arithmetic by direct field access on the flat
     [Capacitor.t] and the raw sample array.  Calling
     [Capacitor.consume]/[harvest]/[above] or [Trace.power] here would
     box their computed float arguments on every dynamic instruction
     (non-flambda), which used to cost ~11 minor words/instr and
     dominate harvested-mode wall-clock.  The voltage thresholds are
     hoisted as energies ([above t v] ⇔ [energy >= ½Cv² - 1e-18]); a
     missing backup threshold becomes -∞ so the comparison is always
     false, matching the [None -> false] arm it replaces.  Cold paths
     (outages, charging, backup) keep the readable module calls.  Under
     unlimited power none of this is read. *)
  let th_restore, th_vmin, th_backup, tr_samples, tr_dt =
    match supply with
    | None -> (0.0, 0.0, 0.0, [||], 0.0)
    | Some { cap; trace } ->
      let th v = Capacitor.energy_at cap v -. 1e-18 in
      ( th det.Detector.v_restore,
        th (Capacitor.v_min cap),
        (match det.Detector.v_backup with
        | Some vb -> th vb
        | None -> Float.neg_infinity),
        Trace.samples trace,
        Trace.sample_dt trace )
  in
  let tr_n = Array.length tr_samples in
  let p_quiescent = s.p_quiescent in
  let budget =
    match sim_budget_ns with Some b -> b | None -> Float.infinity
  in
  let hb = match heartbeat with Some h -> h | None -> Hb.disabled () in
  let w = watch_fault fault in
  let armed = Attrib.armed at and has_fault = fault <> None in
  (* The packed machine is opened once, so an instruction costs one
     call, [D.step], plus its memory ops' calls.  Everything else the
     loop does per instruction is field reads and writes; its calls sit
     on branches a step rarely takes: outages, heartbeats, trace-sample
     refreshes, the armed profiler and fault plans (DESIGN.md §7.5). *)
  let (M.Packed ((module D), dm)) = m in
  let o =
    Fun.protect ~finally:(fun () -> unwatch_fault w) @@ fun () ->
    while (not cpu.Cpu.halted) && s.f.now <= budget do
      if s.instructions >= max_instructions then
        raise (Stagnation "instruction guard exceeded without Halt");
      (* The voltage state machine, harvested power only: [stopped] when
         a backup or a death takes this iteration instead of a step. *)
      let stopped =
        match supply with
        | None -> false
        | Some sp ->
          let cap = sp.cap in
          if s.f.now *. 1.0e-9 > max_sim_s then
            raise (Stagnation "simulated-time guard exceeded");
          (* Re-arm the backup trigger once the voltage has recovered. *)
          if (not s.backup_armed) && cap.Capacitor.energy >= th_restore then
            s.backup_armed <- true;
          if has_jit && s.backup_armed && cap.Capacitor.energy < th_backup
          then begin
            s.backup_armed <- false;
            (* NvMR keeps running on the remaining charge; otherwise the
               backup (or its failure) is followed by power-down. *)
            let ok = try_backup s sp in
            if not (M.continues_after_backup m && ok) then power_cycle s;
            true
          end
          else if cap.Capacitor.energy < th_vmin then begin
            (* Hard death: volatile state is lost. *)
            s.deaths <- s.deaths + 1;
            if Sink.on () then
              Sink.emit ~ns:s.f.now (Ev.Death { volts = Capacitor.voltage cap });
            power_cycle s;
            true
          end
          else false
      in
      if not stopped then begin
        let pc = cpu.Cpu.pc in
        let rg0 = mst.Mstats.regions in
        acc.Exec.Acc.now <- s.f.now;
        if armed then begin
          (* Attribution pre-reads: the monotonic machine counters whose
             per-step deltas get charged to [pc], read by field (an
             accessor would be a call under [-opaque]).  All int reads
             except the stall total, which stays unboxed in a register
             (cmmgen unboxes float lets whose uses are float ops — same
             discipline as the loop totals). *)
          let w0 = nvm.Nvm.write_events in
          let mi0 = acache.Cache.misses in
          let st0 =
            mst.Mstats.f.Mstats.wait_ns +. mst.Mstats.f.Mstats.waw_stall_ns
          in
          D.step dm;
          Array.unsafe_set at.Attrib.count pc
            (Array.unsafe_get at.Attrib.count pc + 1);
          Array.unsafe_set at.Attrib.ns pc
            (Array.unsafe_get at.Attrib.ns pc +. acc.Exec.Acc.ns);
          Array.unsafe_set at.Attrib.joules pc
            (Array.unsafe_get at.Attrib.joules pc +. acc.Exec.Acc.joules);
          Array.unsafe_set at.Attrib.nvm_writes pc
            (Array.unsafe_get at.Attrib.nvm_writes pc
            + (nvm.Nvm.write_events - w0));
          Array.unsafe_set at.Attrib.cache_misses pc
            (Array.unsafe_get at.Attrib.cache_misses pc
            + (acache.Cache.misses - mi0));
          Array.unsafe_set at.Attrib.stall_ns pc
            (Array.unsafe_get at.Attrib.stall_ns pc
            +. (mst.Mstats.f.Mstats.wait_ns
               +. mst.Mstats.f.Mstats.waw_stall_ns -. st0))
        end
        else D.step dm;
        let step_ns = acc.Exec.Acc.ns and step_joules = acc.Exec.Acc.joules in
        (* Re-execution bookkeeping, armed or not ([i] = 0 when
           disabled).  The epoch bump uses the step's region-count
           delta, so a retiring region boundary commits its own
           instruction. *)
        let i = pc land at.Attrib.mask in
        if Array.unsafe_get at.Attrib.stamp i = at.Attrib.epoch then
          Array.unsafe_set at.Attrib.delta i
            (Array.unsafe_get at.Attrib.delta i + 1)
        else begin
          Array.unsafe_set at.Attrib.stamp i at.Attrib.epoch;
          Array.unsafe_set at.Attrib.delta i 1
        end;
        at.Attrib.epoch <- at.Attrib.epoch + (mst.Mstats.regions - rg0);
        s.f.compute_joules <- s.f.compute_joules +. step_joules;
        (match supply with
        | None -> ()
        | Some sp ->
          let cap = sp.cap in
          (* Capacitor.consume, inlined. *)
          let e = cap.Capacitor.energy -. step_joules in
          cap.Capacitor.energy <- (if e > 0.0 then e else 0.0);
          (* pass_time_on, inlined: quiescent draw, then harvest at the
             pre-advance timestamp (same order as the function). *)
          if step_ns > 0.0 then begin
            let dt = step_ns *. 1.0e-9 in
            let pq = p_quiescent *. dt in
            let e = cap.Capacitor.energy -. pq in
            cap.Capacitor.energy <- (if e > 0.0 then e else 0.0);
            s.f.quiescent_joules <- s.f.quiescent_joules +. pq;
            (* Trace sample, from the cache while [now] stays inside the
               current 100 µs hold interval.  On a recompute: [now]
               never goes backwards from 0, so [idx] is non-negative and
               one [mod] reproduces [Trace.power]'s wraparound;
               [Trace.ensure] generates a lazy (jittered) trace's sample
               before the direct read, and returns unit so nothing
               boxes; the refreshed edge is shrunk by a relative 1e-6
               (≫ any rounding error, ≪ the interval) so it can never
               land past the true boundary. *)
            if s.f.now >= s.f.trace_edge then begin
              let idx = int_of_float (s.f.now *. 1.0e-9 /. tr_dt) in
              let k = idx mod tr_n in
              Trace.ensure sp.trace k;
              s.f.trace_p <- Array.unsafe_get tr_samples k;
              s.f.trace_edge <-
                float_of_int (idx + 1) *. tr_dt *. 1.0e9 *. 0.999999
            end;
            let p = s.f.trace_p in
            let e = cap.Capacitor.energy +. (p *. dt) in
            cap.Capacitor.energy <-
              (if e < cap.Capacitor.e_max then e else cap.Capacitor.e_max)
          end);
        s.f.now <- s.f.now +. step_ns;
        s.f.on_ns <- s.f.on_ns +. step_ns;
        s.instructions <- s.instructions + 1;
        (* Amortized liveness beat: a compare + subtract per
           instruction, the rest on the cold [fire] path every
           [hb.every] instructions. *)
        hb.Hb.countdown <- hb.Hb.countdown - 1;
        if hb.Hb.countdown <= 0 then
          Hb.fire hb ~sim_ns:s.f.now ~instructions:s.instructions
            ~reboots:s.outages ~nvm_writes:(Nvm.write_events nvm);
        (* Sparse voltage samples while executing keep the counter track
           legible without swamping the trace.  The cheap modulus goes
           first: [Sink.on] is a call. *)
        (match supply with
        | Some sp when s.instructions mod 5_000 = 0 && Sink.on () ->
          Sink.emit ~ns:s.f.now
            (Ev.Voltage { volts = Capacitor.voltage sp.cap })
        | Some _ | None -> ());
        if has_fault then
          match fault_to_fire w ~instructions:s.instructions with
          | Some f ->
            w.fired <- true;
            inject s f ~trigger:(Fault.trigger_kind f.Fault.trigger);
            for _ = 1 to f.Fault.nested do inject s f ~trigger:"nested" done
          | None -> ()
      end
    done;
    let completed = cpu.Cpu.halted in
    (* A budget stop is graceful (the early-stop path): the machine is
       left undrained and the outcome reports partial progress with
       [completed = false]. *)
    if completed then begin
      let pc0 = cpu.Cpu.pc in
      let w0 = Nvm.write_events nvm in
      let d = M.drain m ~now_ns:s.f.now in
      (match supply with
      | Some sp -> Capacitor.consume sp.cap d.Cost.joules
      | None -> ());
      s.f.compute_joules <- s.f.compute_joules +. d.Cost.joules;
      Attrib.note_cold at ~pc:pc0
        ~nvm_writes:(Nvm.write_events nvm - w0)
        ~ns:d.Cost.ns ~joules:d.Cost.joules ();
      pass_time_on s d.Cost.ns
    end;
    {
      completed;
      on_ns = s.f.on_ns;
      off_ns = s.f.off_ns;
      outages = s.outages;
      deaths = s.deaths;
      backups = s.backups;
      failed_backups = s.failed_backups;
      compute_joules = s.f.compute_joules;
      backup_joules = s.f.backup_joules;
      restore_joules = s.f.restore_joules;
      quiescent_joules = s.f.quiescent_joules;
      instructions = s.instructions;
      injected_faults = s.injected_faults;
    }
  in
  publish_outcome o;
  o
