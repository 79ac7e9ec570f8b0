(** Renderer for per-PC attribution profiles.

    {!Sweep_sim.Profile} writes the schema-versioned JSON table
    ([sweepsim --attrib], [sweepexp --attrib-dir]) and reads it back;
    this module prints the [sweeptrace profile] report (whole-run
    summary, top-N tables for time / energy / NVM wear / re-execution,
    and per-function / per-opcode rollups), and diffs two profiles
    through {!Diff.compare_runs} with a profile-specific direction
    map. *)

val row_time : Sweep_sim.Profile.row -> float
(** [ns + ckpt_ns + stall_ns] — everything the PC cost on the clock. *)

val row_energy : Sweep_sim.Profile.row -> float
(** [joules + backup_joules + restore_joules]. *)

val row_wear : Sweep_sim.Profile.row -> int
(** [nvm_writes + ckpt_nvm_writes]. *)

val summary_text : Sweep_sim.Profile.t -> string
(** Whole-run header: retirement split, time, energy, wear. *)

val render_report : ?top:int -> Sweep_sim.Profile.t -> string
(** Summary plus top-[top] (default 10) tables by time, energy, NVM
    writes, and re-execution, then per-function and per-opcode
    rollups.  Deterministic: ties break on PC / group name. *)

val direction : string -> Sweep_exp.Results.direction
(** Profile-field direction map: retirement counts ([count], [forward],
    [instructions]) are [`Info]; every cost series is [`Lower_better]. *)

val to_run : Sweep_sim.Profile.t -> Diff.run
(** One Diff key per row ([pc<n>:<op>]) plus a [totals] pseudo-key that
    compares even across different programs. *)

val diff :
  ?threshold_pct:float -> Sweep_sim.Profile.t -> Sweep_sim.Profile.t ->
  (Diff.t, string) result
(** [Diff.compare_runs] over {!to_run} with {!direction}; default
    threshold 0.5%. *)

val diff_files :
  ?threshold_pct:float -> string -> string -> (Diff.t, string) result
