(** Per-PC attribution counters: packed parallel arrays pinning every
    unit of simulated cost (time, energy, NVM wear, cache misses,
    stalls, re-executed work) to the program counter that incurred it.

    The record is public because the simulator's cycle loop open-codes
    the per-instruction update against these fields — a cross-module
    call per instruction would defeat inlining under the dev profile's
    [-opaque] and box the float operands.  Everything outside the
    driver should treat the arrays as read-only and go through the
    cold-path functions below.

    Arming: a disabled [t] carries length-1 arrays and [mask = 0], an
    armed one full-length arrays and [mask = -1].  The cycle loop
    updates the per-PC cost counters only when {!armed} (one branch
    per instruction); its re-execution bookkeeping indexes with
    [pc land mask] in every run, so a disabled [t] accumulates the
    whole run's discarded work in slot 0.

    Re-execution is measured with an epoch/stamp/delta scheme (see the
    implementation header and DESIGN.md §9): commits bump [epoch];
    a crash harvests the uncommitted per-PC instruction deltas into
    [reexec].  For designs with asynchronous persistence this is a
    lower bound on re-executed work. *)

type t = {
  len : int;  (** program length the armed counters cover *)
  mask : int;  (** -1 when armed, 0 when disabled *)
  count : int array;  (** instructions executed at this PC *)
  reexec : int array;  (** executed-then-discarded instructions *)
  nvm_writes : int array;  (** NVM line-writes during execution here *)
  ckpt_nvm_writes : int array;
      (** NVM line-writes from cold machinery (backup / restore /
          final drain) charged to the PC where it fired *)
  cache_misses : int array;
  crashes : int array;  (** power failures that struck at this PC *)
  ns : float array;  (** simulated time spent executing here *)
  stall_ns : float array;  (** persist-buffer wait + WAW stalls *)
  joules : float array;  (** consume energy (execution + final drain) *)
  backup_joules : float array;
  restore_joules : float array;
  ckpt_ns : float array;  (** backup/restore/drain time charged here *)
  stamp : int array;  (** internal: epoch of last execution at PC *)
  delta : int array;  (** internal: instrs at PC since [stamp] epoch *)
  mutable epoch : int;  (** internal: bumped on every commit *)
  mutable total_reexec : int;  (** sum of [reexec], kept incrementally *)
}

val create : len:int -> t
(** Armed instance covering a program of [len] instructions. *)

val disabled : unit -> t
(** Fresh disabled sink.  One per run — disabled instances still absorb
    hot-path stores, so sharing one across domains would race. *)

val armed : t -> bool
val length : t -> int

val note_commit : t -> unit
(** Cold path: work up to here is durably banked (a region boundary
    retired, or a just-in-time backup captured state).  Bumps the
    epoch so in-flight deltas are no longer crash-discardable. *)

val note_crash : t -> pc:int -> int
(** Cold path: a power failure struck while executing at [pc].
    Harvests every un-committed per-PC delta into [reexec], records the
    crash strike, advances the epoch, and returns the total number of
    instructions discarded by this outage. *)

val note_cold :
  t ->
  pc:int ->
  ?nvm_writes:int ->
  ?cache_misses:int ->
  ?ns:float ->
  ?joules:float ->
  ?backup_joules:float ->
  ?restore_joules:float ->
  unit ->
  unit
(** Cold path: charge checkpoint-machinery costs (backup, restore,
    final persist-buffer drain) to the PC where they fired.  [ns] lands
    in [ckpt_ns]; [nvm_writes] in [ckpt_nvm_writes]; [joules] in the
    consume-energy array. *)

val total_reexec : t -> int

(** Whole-run sums over the per-PC arrays (cold; used for
    reconciliation against [Mstats] and run metrics). *)
type totals = {
  t_instructions : int;
  t_reexec : int;
  t_nvm_writes : int;
  t_ckpt_nvm_writes : int;
  t_cache_misses : int;
  t_crashes : int;
  t_ns : float;
  t_stall_ns : float;
  t_joules : float;
  t_backup_joules : float;
  t_restore_joules : float;
  t_ckpt_ns : float;
}

val totals : t -> totals
