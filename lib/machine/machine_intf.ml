(** Common interface implemented by every architecture model.

    The intermittent-execution driver ({!Sweep_sim.Driver}) talks to
    machines only through this signature, packed existentially in
    {!packed}. *)

module type S = sig
  type t

  val name : string

  val create : Config.t -> Sweep_isa.Program.t -> t
  (** Loads the program image into NVM (initial data, checkpoint-PC slot)
      and builds the design's volatile and nonvolatile structures. *)

  val cpu : t -> Cpu.t
  val nvm : t -> Sweep_mem.Nvm.t
  val cache : t -> Sweep_mem.Cache.t option
  val mstats : t -> Mstats.t

  val detector : t -> Sweep_energy.Detector.t
  (** The design's voltage detector (possibly overridden by config). *)

  val step : t -> unit
  (** Execute one instruction, leaving its cost in {!acc}.  The caller
      writes the current simulation time into [Acc.now] before stepping
      (passing it as a float argument would box it on every call). *)

  val acc : t -> Exec.Acc.t
  (** The machine's per-step cost accumulator.  Write [now] before and
      read [ns]/[joules] after each {!step}; the next step overwrites
      them.  Callers hoist this once before their cycle loop — the
      accumulator object is stable for the machine's lifetime, as is
      the {!cpu} record, whose [halted] field says when to stop. *)

  val jit_backup_cost : t -> Cost.t option
  (** [Some cost] for JIT-checkpoint designs: what a backup would cost
      right now.  [None] for SweepCache (no JIT backup stage). *)

  val commit_jit_backup : t -> now_ns:float -> unit
  (** Perform the backup whose cost was just queried (the driver charges
      the cost and only commits when the energy sufficed). *)

  val continues_after_backup : bool
  (** NvMR keeps executing after a JIT backup instead of powering down. *)

  val on_power_failure : t -> now_ns:float -> unit
  (** Volatile state is lost.  Nonvolatile structures (NVM, persist
      buffers, backup shadows) survive. *)

  val on_reboot : t -> now_ns:float -> Cost.t
  (** Run the design's recovery protocol; returns its cost.  Afterwards
      the CPU holds a consistent architectural state and execution can
      resume via {!step}. *)

  val drain : t -> now_ns:float -> Cost.t
  (** Complete any background persistence after [Halt] (SweepCache's DMA
      queue, ReplayCache's pending clwbs) so the final NVM image is
      stable. *)
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let name (Packed ((module M), _)) = M.name
let step (Packed ((module M), t)) = M.step t
let acc (Packed ((module M), t)) = M.acc t
let halted (Packed ((module M), t)) = (M.cpu t).Cpu.halted
let cpu (Packed ((module M), t)) = M.cpu t
let nvm (Packed ((module M), t)) = M.nvm t
let cache (Packed ((module M), t)) = M.cache t
let mstats (Packed ((module M), t)) = M.mstats t
let detector (Packed ((module M), t)) = M.detector t
let jit_backup_cost (Packed ((module M), t)) = M.jit_backup_cost t
let commit_jit_backup (Packed ((module M), t)) ~now_ns = M.commit_jit_backup t ~now_ns
let continues_after_backup (Packed ((module M), _)) = M.continues_after_backup
let on_power_failure (Packed ((module M), t)) ~now_ns = M.on_power_failure t ~now_ns
let on_reboot (Packed ((module M), t)) ~now_ns = M.on_reboot t ~now_ns
let drain (Packed ((module M), t)) ~now_ns = M.drain t ~now_ns
