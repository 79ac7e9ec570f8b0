(* Per-PC attribution counters.

   One [t] rides along a single simulated run and pins every unit of
   simulated cost — time, energy, NVM line-writes, cache misses,
   persist stalls, re-executed work — to the program counter that
   incurred it.  The whole design is shaped by the hot loop's
   zero-allocation discipline:

   - All counters are packed parallel arrays indexed by decoded PC.
     Int counters are [int array]; time/energy counters are flat
     [float array]s, so accumulation is an unboxed load-add-store.
   - A disabled [t] has length-1 arrays and [mask = 0]; an armed one
     has full-length arrays and [mask = -1].  The driver tests a
     hoisted [armed t] once per instruction and skips the per-PC cost
     counters when it is false.  The re-execution bookkeeping below
     runs either way, indexed with [pc land mask], so a disabled [t]
     keeps the whole run's uncommitted count in slot 0 — what a traced
     run's [Reexec] events report.  Neither path allocates.
   - The driver open-codes the per-instruction update against these
     public fields (a cross-module call per instruction would defeat
     inlining under the dev profile's [-opaque]); this module only
     provides the cold-path entry points.

   Re-execution accounting uses an epoch/stamp/delta scheme: [epoch]
   advances whenever work is committed (a region boundary retires, or a
   JIT backup banks state); [delta.(pc)] counts instructions executed
   at [pc] since [stamp.(pc)] was last brought up to the current epoch.
   On a power failure the un-committed tail is exactly the set of PCs
   with [stamp = epoch]; harvesting their deltas into [reexec] gives
   per-PC counts of work that the reboot will redo.  For designs whose
   persists complete asynchronously (SweepCache's background sweep)
   the committed boundary can trail the architectural region boundary,
   so this measures a lower bound on re-executed work — see DESIGN.md
   §9. *)

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

let make ~len ~mask =
  {
    len;
    mask;
    count = Array.make len 0;
    reexec = Array.make len 0;
    nvm_writes = Array.make len 0;
    ckpt_nvm_writes = Array.make len 0;
    cache_misses = Array.make len 0;
    crashes = Array.make len 0;
    ns = Array.make len 0.0;
    stall_ns = Array.make len 0.0;
    joules = Array.make len 0.0;
    backup_joules = Array.make len 0.0;
    restore_joules = Array.make len 0.0;
    ckpt_ns = Array.make len 0.0;
    stamp = Array.make len (-1);
    delta = Array.make len 0;
    epoch = 0;
    total_reexec = 0;
  }

let create ~len =
  if len <= 0 then invalid_arg "Attrib.create: len must be positive";
  make ~len ~mask:(-1)

(* A fresh sink per run: disabled instances still receive hot-path
   stores into their slot-0 buffers, so sharing one across domains
   would be a data race.  Allocation here is cold (once per run). *)
let disabled () = make ~len:1 ~mask:0

let armed t = t.mask <> 0
let length t = t.len

let note_commit t = t.epoch <- t.epoch + 1

let note_crash t ~pc =
  let e = t.epoch in
  let discarded = ref 0 in
  for i = 0 to t.len - 1 do
    if t.stamp.(i) = e then begin
      let d = t.delta.(i) in
      t.reexec.(i) <- t.reexec.(i) + d;
      discarded := !discarded + d
    end
  done;
  t.total_reexec <- t.total_reexec + !discarded;
  t.epoch <- e + 1;
  let i = pc land t.mask in
  t.crashes.(i) <- t.crashes.(i) + 1;
  !discarded

let note_cold t ~pc ?(nvm_writes = 0) ?(cache_misses = 0) ?(ns = 0.0)
    ?(joules = 0.0) ?(backup_joules = 0.0) ?(restore_joules = 0.0) () =
  let i = pc land t.mask in
  t.ckpt_nvm_writes.(i) <- t.ckpt_nvm_writes.(i) + nvm_writes;
  t.cache_misses.(i) <- t.cache_misses.(i) + cache_misses;
  t.ckpt_ns.(i) <- t.ckpt_ns.(i) +. ns;
  t.joules.(i) <- t.joules.(i) +. joules;
  t.backup_joules.(i) <- t.backup_joules.(i) +. backup_joules;
  t.restore_joules.(i) <- t.restore_joules.(i) +. restore_joules

let total_reexec t = t.total_reexec

let total_int a = Array.fold_left ( + ) 0 a
let total_float a = Array.fold_left ( +. ) 0.0 a

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

let totals t =
  {
    t_instructions = total_int t.count;
    t_reexec = total_int t.reexec;
    t_nvm_writes = total_int t.nvm_writes;
    t_ckpt_nvm_writes = total_int t.ckpt_nvm_writes;
    t_cache_misses = total_int t.cache_misses;
    t_crashes = total_int t.crashes;
    t_ns = total_float t.ns;
    t_stall_ns = total_float t.stall_ns;
    t_joules = total_float t.joules;
    t_backup_joules = total_float t.backup_joules;
    t_restore_joules = total_float t.restore_joules;
    t_ckpt_ns = total_float t.ckpt_ns;
  }
