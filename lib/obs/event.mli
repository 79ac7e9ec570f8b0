(** Typed trace events for the whole simulation stack.

    Every event carries its payload inline; the timestamp (simulated
    nanoseconds for machine/driver events, wall-clock nanoseconds for
    executor job events) travels separately through {!Sink.emit} so hot
    paths can reuse the [now_ns] value they already hold. *)

type category = Region | Buffer | Cache | Power | Exec | Job | Fault | Tune

val category_name : category -> string
val category_of_name : string -> category option
val all_categories : category list

type phase =
  | Fill   (** phase 1: the region executes, write-backs quarantined *)
  | Flush  (** phase 2 (s-phase1): region-end dirty-line flush *)
  | Drain  (** phase 3 (s-phase2): DMA drain of the sealed buffer to NVM *)

val phase_index : phase -> int
val phase_name : phase -> string

type t =
  | Region_begin of { seq : int; buf : int }
  | Region_end of { seq : int; buf : int }
  | Buf_phase of {
      buf : int;
      seq : int;
      phase : phase;
      start_ns : float;
      end_ns : float;
    }  (** A completed/scheduled persistence span on one persist buffer. *)
  | Buf_wait of { buf : int; ns : float }
      (** Structural-hazard stall at a region boundary (§3.3). *)
  | Waw_stall of { seq : int; ns : float }  (** §4.3 write-after-write. *)
  | Buffer_search of { scanned : int; hit : bool }
  | Buffer_bypass  (** Empty-bit let a miss skip the buffer search. *)
  | Cache_miss of { addr : int; write : bool }
  | Cache_writeback of { base : int }
  | Power_down of { volts : float }  (** JIT stop or post-backup stop. *)
  | Death of { volts : float }       (** Hard death at Vmin. *)
  | Reboot of { outage : int }
  | Backup of { ok : bool; joules : float }
  | Backup_lines of { lines : int }  (** Design detail: lines checkpointed. *)
  | Restore of { joules : float }
  | Reexec of { discarded : int }
      (** Instructions executed since the last durable commit and
          discarded by this outage — the work the reboot re-executes
          (counter track; emitted on every crash path). *)
  | Replay of { stores : int }       (** ReplayCache store replay. *)
  | Voltage of { volts : float }     (** Capacitor sample (counter track). *)
  | Halt
  | Heartbeat of {
      every : int;
      instructions : int;
      reboots : int;
      nvm_writes : int;
    }
      (** Periodic liveness beat from the hot cycle loop, fired every
          [every] instructions.  Carries cumulative instructions,
          reboots and NVM writes; simulated time rides as the line's
          own timestamp. *)
  | Dropped of { count : int }
      (** [count] earlier events were lost (bounded sink overwrote on
          wrap) — a trace containing this is truncated, not complete. *)
  | Job_start of { key : string }
  | Job_done of { key : string; elapsed_s : float }
  | Job_failed of { key : string; error : string }
      (** A worker caught an exception; the job produced no summary. *)
  | Job_retry of { key : string; attempt : int }
      (** Supervised execution: the worker running the job died (crash
          or heartbeat timeout) and the job was requeued; [attempt] is
          the attempt that just failed (1-based). *)
  | Cache_hit of { key : string }
      (** The persistent result cache served the job's summary; nothing
          was simulated. *)
  | Worker_spawn of { worker : int; pid : int }
      (** Supervisor (re)spawned worker process [pid] into slot
          [worker]. *)
  | Worker_dead of { worker : int; pid : int; reason : string }
      (** Worker process [pid] in slot [worker] was reaped; [reason] is
          ["exit N"], ["signal N"] or ["heartbeat timeout (...)"] . *)
  | Fault_inject of { trigger : string; detail : string }
      (** An injected (adversarial) power failure, as opposed to a
          voltage-driven {!Death}.  [trigger] is ["instr"], ["event"] or
          ["nested"]; [detail] locates the crash point. *)
  | Fault_torn of { base : int; words : int }
      (** Torn persist-buffer DMA: only the first [words] words of the
          line at [base] reached NVM before the crash. *)
  | Fault_stuck of { bit : int; buf : int; seq : int }
      (** A stuck-at-1 [phaseNComplete] bit ([bit] is 1 or 2) observed
          on buffer [buf] (region [seq]) at crash time. *)
  | Tune_round of { strategy : string; round : int; points : int; benches : int }
      (** A design-space search round: [points] candidates evaluated on
          [benches] workloads (wall-clock timestamps, like job events). *)
  | Tune_eval of { key : string; cached : bool }
      (** One (point, bench) cell of the search; [cached] when the
          journal or results store already held it. *)
  | Tune_prune of { key : string; budget_ns : float }
      (** An early-stopped cell: its simulation was cut at [budget_ns]
          simulated nanoseconds because it was already dominated. *)
  | Tune_frontier of { size : int; evals : int }
      (** Pareto frontier update after a round: [size] non-dominated
          points after [evals] total evaluations. *)
  | Mark of { name : string; cat : category }
      (** Free-form instant marker for one-off annotations. *)

val category : t -> category
val name : t -> string

val tag : t -> string
(** Stable lower-snake constructor tag ([region_begin], [buf_phase],
    …) — the ["ev"] field of every JSONL line.  Unlike {!name} it is
    unambiguous, so {!of_parts} can reconstruct the variant. *)

val json_args : t -> string
(** The payload as JSON object fields without surrounding braces
    (possibly empty). *)

(** {2 Round-trip parsing}

    Inverse of {!tag}/{!name}/{!json_args}: rebuild the event from a
    decoded JSONL line.  Lives here (rather than in [Sweep_analyze]) so
    the constructor list and its parser can never drift apart. *)

val of_parts :
  tag:string -> name:string -> cat:string ->
  args:(string * Sweep_util.Json.t) list -> t option
(** [of_parts ~tag ~name ~cat ~args] is the event whose JSONL rendering
    carries those parts, or [None] for an unknown tag / missing or
    ill-typed fields.  [name] and [cat] matter only for [mark] events;
    integer fields accept any integral [Num]. *)
