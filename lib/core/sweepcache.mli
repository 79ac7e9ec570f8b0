(** The SweepCache machine (paper §3–§4).

    Implements {!Sweep_machine.Machine_intf.S}:

    - a volatile write-back L1D whose in-region write-backs are
      quarantined in the active persist buffer (t-phase1);
    - region-end persistence: flush the region's dirty lines (found via
      the write-back-instructive table) into the buffer (t-phase2 /
      s-phase1 completion) and then DMA the buffer to its NVM home
      locations (t-phase3 / s-phase2) — both run on a background DMA
      engine while the next region executes speculatively out of the
      second buffer (region-level parallelism, §3.3);
    - per-buffer [phase1Complete]/[phase2Complete] status expressed as
      buffer states with completion timestamps, driving the three-case
      recovery protocol of §4.2;
    - write-after-write stalls for stores that hit a prior region's
      not-yet-flushed dirty line (§4.3);
    - empty-bit (or always-sequential, per config) buffer search on cache
      misses (§4.4).

    Persistence *energy* is charged when the work is scheduled; its
    *time* is tracked with completion timestamps, so a power failure at
    time T sees exactly the phase progress made by T.  Writes of a
    buffer's entries into NVM home locations happen (functionally) when
    phase 2 completes or when recovery re-drives it — re-driving is
    idempotent, matching the paper's "restart t-phase3" rule.  Those
    writes land on the instruction during which phase 2's deadline
    passes.  Phase 1's completion (clearing the flushed lines' dirty
    bits) is applied lazily, by the next engine pass or by the access
    that reads it, with the same observable result (DESIGN.md §7.3). *)

include Sweep_machine.Machine_intf.S

val buffer_peak : t -> int
(** Largest persist-buffer occupancy observed (must stay ≤ capacity — the
    compiler's threshold invariant). *)

val avg_buffer_fill_at_miss : t -> float
(** Average number of persist-buffer entries present when a cache miss
    occurred — load or store, since both consult the buffers before
    NVM.  The paper reports 0.00012 entries per region; we report the
    per-miss analogue. *)

val pack : t -> Sweep_machine.Machine_intf.packed
(** Wrap an existing instance (keeps it inspectable alongside the packed
    view). *)

val packed :
  Sweep_machine.Config.t -> Sweep_isa.Program.t ->
  Sweep_machine.Machine_intf.packed
(** Convenience: create and pack in one step. *)
