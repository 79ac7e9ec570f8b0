(** Intermittent-execution driver.

    Runs a machine either with unlimited power (the Fig. 5 setting) or
    against a capacitor charged by a power trace.  The driver owns the
    voltage state machine:

    - JIT designs back up when the voltage crosses their backup threshold
      (after the detector's propagation delay), then power down; a backup
      only commits if the energy left above Vmin covers its cost.
    - Every design dies at Vmin (volatile state lost) and reboots at its
      restore threshold after the restore propagation delay, paying its
      recovery cost.
    - NvMR ([continues_after_backup]) keeps executing after a backup
      until actual death, re-arming its backup trigger after recharge.
    - The detector's quiescent draw is charged continuously, on and off —
      a deliberate part of the energy story (§2.2). *)

type power =
  | Unlimited
  | Harvested of {
      trace : Sweep_energy.Power_trace.t;
      capacitor_farads : float;
      v_max : float;  (** Table 1: 3.5 *)
      v_min : float;  (** Table 1: 2.8 *)
    }

val harvested :
  ?v_max:float -> ?v_min:float -> trace:Sweep_energy.Power_trace.t ->
  farads:float -> unit -> power

type outcome = {
  completed : bool;
      (** reached [Halt] within the guards; [false] only for a graceful
          [?sim_budget_ns] partial stop (the machine is left undrained
          and all totals report partial progress) *)
  on_ns : float;          (** time spent executing (incl. stalls) *)
  off_ns : float;         (** time spent dead/charging *)
  outages : int;          (** power-down events (backup stops + deaths) *)
  deaths : int;           (** hard deaths at Vmin only *)
  backups : int;
  failed_backups : int;   (** backups that did not fit in the energy left *)
  compute_joules : float; (** instruction + memory energy *)
  backup_joules : float;
  restore_joules : float;
  quiescent_joules : float;
  instructions : int;
  injected_faults : int;  (** crashes injected by the [?fault] plan *)
}

val total_ns : outcome -> float
val total_joules : outcome -> float

exception Stagnation of string
(** Raised when the run exceeds its guards (no forward progress — e.g. a
    region too long for the capacitor, or harvest below the detector
    draw). *)

val run :
  ?max_instructions:int ->
  ?max_sim_s:float ->
  ?sim_budget_ns:float ->
  ?fault:Fault.t ->
  ?after_recovery:(now_ns:float -> unit) ->
  ?heartbeat:Sweep_obs.Heartbeat.t ->
  ?attrib:Sweep_obs.Attrib.t ->
  Sweep_machine.Machine_intf.packed ->
  power:power ->
  outcome
(** Executes until [Halt] (plus {!Sweep_machine.Machine_intf.drain}).
    Both power modes run one cycle loop.  Under [Unlimited] power there
    is no capacitor: the loop skips the voltage state machine and the
    energy arithmetic, so nothing backs up or dies, and [off_ns],
    [deaths], [backups], [backup_joules] and [quiescent_joules] stay 0.
    When {!Sweep_obs.Sink.on}, emits power/backup/restore/voltage events
    (no voltage samples under [Unlimited]); when
    {!Sweep_obs.Metrics.enabled}, accumulates the outcome's [driver.*]
    counters into the registry, unlabelled.

    Guards raise {!Stagnation}.  The instruction guard (default 500 M)
    allows exactly [max_instructions] instructions, counted across
    reboots: a run that needs N completes at [max_instructions = N] and
    raises at N - 1.  The simulated-time guard (default 600 s) applies
    to harvested power only.

    [?sim_budget_ns] is a {e graceful} simulated-time ceiling: unlike
    the guards, reaching it stops the run cleanly with
    [completed = false] and partial totals — sweeptune's early-stop
    uses it to cut dominated cells.  The check is one float compare per
    loop iteration, so the budget is honoured to within one instruction
    (or one power cycle).

    [?heartbeat] attaches per-run liveness beats: the cycle loop pays a
    compare + subtract per instruction and calls
    {!Sweep_obs.Heartbeat.fire} every [every] instructions, emitting
    {!Sweep_obs.Event.Heartbeat} (instructions, reboots, NVM writes;
    simulated time as the timestamp) and invoking the observer — the
    executor's live-status hook.  Allocation-free when beats don't
    fire; the fired path is amortized far below the [test alloc]
    gate's threshold.

    [?attrib] arms per-PC attribution: the cycle loop charges each
    instruction's time, energy, NVM line-writes, cache misses and
    persist stalls to the PC that executed it, and the epoch scheme in
    {!Sweep_obs.Attrib} splits work into forward progress vs.
    re-executed-after-crash.  The loop always runs the accumulation
    stores (indexing a one-slot buffer when no profiler is attached),
    so arming costs no extra branch and the path stays allocation-free
    — [test alloc] runs with attribution armed.  Crash paths emit an
    {!Sweep_obs.Event.Reexec} counter sample (discarded instructions
    per outage) whenever a sink is on, profiler or not.

    [?fault] injects one adversarial power failure at the plan's crash
    point (plus its nested re-crashes), on top of whatever the voltage
    model does: the machine's [on_power_failure]/[on_reboot] paths run
    exactly as for a real death, a JIT design first banks the backup
    its detector would have banked, and a [Fault_inject] event is
    emitted.  Under [Unlimited] power the off period is instantaneous
    ([Power_down] reports 0 V) and that backup is free: no joules, no
    [backups] count, no [Backup] event.  Event-triggered plans require
    a sequential run.

    [?after_recovery] is invoked after {e every} completed recovery
    (injected or voltage-driven) with the machine in its
    just-recovered state — the differential checker's observation
    hook. *)
