type category = Region | Buffer | Cache | Power | Exec | Job | Fault | Tune

let category_name = function
  | Region -> "region"
  | Buffer -> "buffer"
  | Cache -> "cache"
  | Power -> "power"
  | Exec -> "exec"
  | Job -> "job"
  | Fault -> "fault"
  | Tune -> "tune"

let category_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "region" -> Some Region
  | "buffer" -> Some Buffer
  | "cache" -> Some Cache
  | "power" -> Some Power
  | "exec" -> Some Exec
  | "job" -> Some Job
  | "fault" -> Some Fault
  | "tune" -> Some Tune
  | _ -> None

let all_categories = [ Region; Buffer; Cache; Power; Exec; Job; Fault; Tune ]

type phase = Fill | Flush | Drain

let phase_index = function Fill -> 1 | Flush -> 2 | Drain -> 3
let phase_name = function Fill -> "fill" | Flush -> "flush" | Drain -> "drain"

type t =
  | Region_begin of { seq : int; buf : int }
  | Region_end of { seq : int; buf : int }
  | Buf_phase of {
      buf : int;
      seq : int;
      phase : phase;
      start_ns : float;
      end_ns : float;
    }
  | Buf_wait of { buf : int; ns : float }
  | Waw_stall of { seq : int; ns : float }
  | Buffer_search of { scanned : int; hit : bool }
  | Buffer_bypass
  | Cache_miss of { addr : int; write : bool }
  | Cache_writeback of { base : int }
  | Power_down of { volts : float }
  | Death of { volts : float }
  | Reboot of { outage : int }
  | Backup of { ok : bool; joules : float }
  | Backup_lines of { lines : int }
  | Restore of { joules : float }
  | Reexec of { discarded : int }
  | Replay of { stores : int }
  | Voltage of { volts : float }
  | Halt
  | Heartbeat of {
      every : int;
      instructions : int;
      reboots : int;
      nvm_writes : int;
    }
  | Dropped of { count : int }
  | Job_start of { key : string }
  | Job_done of { key : string; elapsed_s : float }
  | Job_failed of { key : string; error : string }
  | Job_retry of { key : string; attempt : int }
  | Cache_hit of { key : string }
  | Worker_spawn of { worker : int; pid : int }
  | Worker_dead of { worker : int; pid : int; reason : string }
  | Fault_inject of { trigger : string; detail : string }
  | Fault_torn of { base : int; words : int }
  | Fault_stuck of { bit : int; buf : int; seq : int }
  | Tune_round of { strategy : string; round : int; points : int; benches : int }
  | Tune_eval of { key : string; cached : bool }
  | Tune_prune of { key : string; budget_ns : float }
  | Tune_frontier of { size : int; evals : int }
  | Mark of { name : string; cat : category }

let category = function
  | Region_begin _ | Region_end _ -> Region
  | Buf_phase _ | Buf_wait _ | Waw_stall _ | Buffer_search _ | Buffer_bypass ->
    Buffer
  | Cache_miss _ | Cache_writeback _ -> Cache
  | Power_down _ | Death _ | Reboot _ | Backup _ | Backup_lines _ | Restore _
  | Reexec _ | Replay _ | Voltage _ ->
    Power
  | Halt | Heartbeat _ | Dropped _ -> Exec
  | Job_start _ | Job_done _ | Job_failed _ | Job_retry _ | Cache_hit _
  | Worker_spawn _ | Worker_dead _ ->
    Job
  | Fault_inject _ | Fault_torn _ | Fault_stuck _ -> Fault
  | Tune_round _ | Tune_eval _ | Tune_prune _ | Tune_frontier _ -> Tune
  | Mark { cat; _ } -> cat

let name = function
  | Region_begin { seq; _ } -> Printf.sprintf "region %d" seq
  | Region_end { seq; _ } -> Printf.sprintf "region %d" seq
  | Buf_phase { phase; seq; _ } ->
    Printf.sprintf "%s r%d" (phase_name phase) seq
  | Buf_wait { buf; _ } -> Printf.sprintf "wait buf%d" buf
  | Waw_stall _ -> "waw stall"
  | Buffer_search { hit = true; _ } -> "buffer hit"
  | Buffer_search { hit = false; _ } -> "buffer search"
  | Buffer_bypass -> "buffer bypass"
  | Cache_miss { write = false; _ } -> "load miss"
  | Cache_miss { write = true; _ } -> "store miss"
  | Cache_writeback _ -> "writeback"
  | Power_down _ -> "power down"
  | Death _ -> "death"
  | Reboot _ -> "reboot"
  | Backup { ok = true; _ } -> "backup"
  | Backup { ok = false; _ } -> "backup failed"
  | Backup_lines _ -> "backup lines"
  | Restore _ -> "restore"
  | Reexec _ -> "re-executed work"
  | Replay _ -> "replay"
  | Voltage _ -> "voltage"
  | Halt -> "halt"
  | Heartbeat _ -> "heartbeat"
  | Dropped { count } -> Printf.sprintf "%d events dropped" count
  | Job_start _ -> "job"
  | Job_done _ -> "job"
  | Job_failed _ -> "job failed"
  | Job_retry { attempt; _ } -> Printf.sprintf "job retry %d" attempt
  | Cache_hit _ -> "cache hit"
  | Worker_spawn { worker; _ } -> Printf.sprintf "worker %d spawn" worker
  | Worker_dead { worker; _ } -> Printf.sprintf "worker %d dead" worker
  | Fault_inject { trigger; _ } -> Printf.sprintf "fault %s" trigger
  | Fault_torn { words; _ } -> Printf.sprintf "torn dma (%d words)" words
  | Fault_stuck { bit; _ } -> Printf.sprintf "stuck phase%d bit" bit
  | Tune_round { strategy; round; _ } ->
    Printf.sprintf "%s round %d" strategy round
  | Tune_eval { cached = true; _ } -> "eval (cached)"
  | Tune_eval { cached = false; _ } -> "eval"
  | Tune_prune _ -> "early stop"
  | Tune_frontier { size; _ } -> Printf.sprintf "frontier (%d)" size
  | Mark { name; _ } -> name

(* Stable constructor tag, written as the ["ev"] field of every JSONL
   line so readers can reconstruct the variant (the display [name] is
   ambiguous: Region_begin and Region_end render identically). *)
let tag = function
  | Region_begin _ -> "region_begin"
  | Region_end _ -> "region_end"
  | Buf_phase _ -> "buf_phase"
  | Buf_wait _ -> "buf_wait"
  | Waw_stall _ -> "waw_stall"
  | Buffer_search _ -> "buffer_search"
  | Buffer_bypass -> "buffer_bypass"
  | Cache_miss _ -> "cache_miss"
  | Cache_writeback _ -> "cache_writeback"
  | Power_down _ -> "power_down"
  | Death _ -> "death"
  | Reboot _ -> "reboot"
  | Backup _ -> "backup"
  | Backup_lines _ -> "backup_lines"
  | Restore _ -> "restore"
  | Reexec _ -> "reexec"
  | Replay _ -> "replay"
  | Voltage _ -> "voltage"
  | Halt -> "halt"
  | Heartbeat _ -> "heartbeat"
  | Dropped _ -> "dropped"
  | Job_start _ -> "job_start"
  | Job_done _ -> "job_done"
  | Job_failed _ -> "job_failed"
  | Job_retry _ -> "job_retry"
  | Cache_hit _ -> "cache_hit"
  | Worker_spawn _ -> "worker_spawn"
  | Worker_dead _ -> "worker_dead"
  | Fault_inject _ -> "fault_inject"
  | Fault_torn _ -> "fault_torn"
  | Fault_stuck _ -> "fault_stuck"
  | Tune_round _ -> "tune_round"
  | Tune_eval _ -> "tune_eval"
  | Tune_prune _ -> "tune_prune"
  | Tune_frontier _ -> "tune_frontier"
  | Mark _ -> "mark"

module Json = Sweep_util.Json

let js = Json.escape_string

(* Event payload as JSON object fields (no surrounding braces), for the
   JSONL and Chrome "args" renderings. *)
let json_args = function
  | Region_begin { seq; buf } | Region_end { seq; buf } ->
    Printf.sprintf "\"seq\":%d,\"buf\":%d" seq buf
  | Buf_phase { buf; seq; phase; start_ns; end_ns } ->
    Printf.sprintf
      "\"buf\":%d,\"seq\":%d,\"phase\":%d,\"start_ns\":%.17g,\"end_ns\":%.17g"
      buf seq (phase_index phase) start_ns end_ns
  (* durations are "dur_ns": a payload key of "ns" would collide with
     the JSONL line's own timestamp field *)
  | Buf_wait { buf; ns } ->
    Printf.sprintf "\"buf\":%d,\"dur_ns\":%.17g" buf ns
  | Waw_stall { seq; ns } ->
    Printf.sprintf "\"seq\":%d,\"dur_ns\":%.17g" seq ns
  | Buffer_search { scanned; hit } ->
    Printf.sprintf "\"scanned\":%d,\"hit\":%b" scanned hit
  | Buffer_bypass -> ""
  | Cache_miss { addr; write } ->
    Printf.sprintf "\"addr\":%d,\"write\":%b" addr write
  | Cache_writeback { base } -> Printf.sprintf "\"base\":%d" base
  | Power_down { volts } | Death { volts } | Voltage { volts } ->
    Printf.sprintf "\"volts\":%.4f" volts
  | Reboot { outage } -> Printf.sprintf "\"outage\":%d" outage
  | Backup { ok; joules } ->
    Printf.sprintf "\"ok\":%b,\"joules\":%.17g" ok joules
  | Backup_lines { lines } -> Printf.sprintf "\"lines\":%d" lines
  | Restore { joules } -> Printf.sprintf "\"joules\":%.17g" joules
  | Reexec { discarded } -> Printf.sprintf "\"discarded\":%d" discarded
  | Replay { stores } -> Printf.sprintf "\"stores\":%d" stores
  | Halt -> ""
  | Heartbeat { every; instructions; reboots; nvm_writes } ->
    Printf.sprintf
      "\"every\":%d,\"instructions\":%d,\"reboots\":%d,\"nvm_writes\":%d"
      every instructions reboots nvm_writes
  | Dropped { count } -> Printf.sprintf "\"count\":%d" count
  | Job_start { key } -> Printf.sprintf "\"job\":%s" (js key)
  | Job_done { key; elapsed_s } ->
    Printf.sprintf "\"job\":%s,\"elapsed_s\":%.6f" (js key) elapsed_s
  | Job_failed { key; error } ->
    Printf.sprintf "\"job\":%s,\"error\":%s" (js key)
      (js error)
  | Job_retry { key; attempt } ->
    Printf.sprintf "\"job\":%s,\"attempt\":%d" (js key) attempt
  | Cache_hit { key } -> Printf.sprintf "\"job\":%s" (js key)
  | Worker_spawn { worker; pid } ->
    Printf.sprintf "\"worker\":%d,\"pid\":%d" worker pid
  | Worker_dead { worker; pid; reason } ->
    Printf.sprintf "\"worker\":%d,\"pid\":%d,\"reason\":%s" worker pid
      (js reason)
  | Fault_inject { trigger; detail } ->
    Printf.sprintf "\"trigger\":%s,\"detail\":%s" (js trigger)
      (js detail)
  | Fault_torn { base; words } ->
    Printf.sprintf "\"base\":%d,\"words\":%d" base words
  | Fault_stuck { bit; buf; seq } ->
    Printf.sprintf "\"bit\":%d,\"buf\":%d,\"seq\":%d" bit buf seq
  | Tune_round { strategy; round; points; benches } ->
    Printf.sprintf "\"strategy\":%s,\"round\":%d,\"points\":%d,\"benches\":%d"
      (js strategy) round points benches
  | Tune_eval { key; cached } ->
    Printf.sprintf "\"job\":%s,\"cached\":%b" (js key) cached
  | Tune_prune { key; budget_ns } ->
    Printf.sprintf "\"job\":%s,\"budget_ns\":%.17g" (js key) budget_ns
  | Tune_frontier { size; evals } ->
    Printf.sprintf "\"size\":%d,\"evals\":%d" size evals
  | Mark _ -> ""

(* ------------------------------------------------------------------ *)
(* Round-trip parsing: rebuild an event from its [tag], display [name],
   category name and decoded argument fields.  The inverse of
   [tag]/[name]/[json_args] for every constructor. *)

let num_arg args k = Option.bind (List.assoc_opt k args) Json.to_float
let int_arg args k = Option.bind (List.assoc_opt k args) Json.to_int
let bool_arg args k = Option.bind (List.assoc_opt k args) Json.to_bool
let str_arg args k = Option.bind (List.assoc_opt k args) Json.to_string

let phase_of_index = function
  | 1 -> Some Fill
  | 2 -> Some Flush
  | 3 -> Some Drain
  | _ -> None

let of_parts ~tag ~name ~cat ~args =
  let ( let* ) = Option.bind in
  match tag with
  | "region_begin" ->
    let* seq = int_arg args "seq" in
    let* buf = int_arg args "buf" in
    Some (Region_begin { seq; buf })
  | "region_end" ->
    let* seq = int_arg args "seq" in
    let* buf = int_arg args "buf" in
    Some (Region_end { seq; buf })
  | "buf_phase" ->
    let* buf = int_arg args "buf" in
    let* seq = int_arg args "seq" in
    let* phase = Option.bind (int_arg args "phase") phase_of_index in
    let* start_ns = num_arg args "start_ns" in
    let* end_ns = num_arg args "end_ns" in
    Some (Buf_phase { buf; seq; phase; start_ns; end_ns })
  | "buf_wait" ->
    let* buf = int_arg args "buf" in
    let* ns = num_arg args "dur_ns" in
    Some (Buf_wait { buf; ns })
  | "waw_stall" ->
    let* seq = int_arg args "seq" in
    let* ns = num_arg args "dur_ns" in
    Some (Waw_stall { seq; ns })
  | "buffer_search" ->
    let* scanned = int_arg args "scanned" in
    let* hit = bool_arg args "hit" in
    Some (Buffer_search { scanned; hit })
  | "buffer_bypass" -> Some Buffer_bypass
  | "cache_miss" ->
    let* addr = int_arg args "addr" in
    let* write = bool_arg args "write" in
    Some (Cache_miss { addr; write })
  | "cache_writeback" ->
    let* base = int_arg args "base" in
    Some (Cache_writeback { base })
  | "power_down" ->
    let* volts = num_arg args "volts" in
    Some (Power_down { volts })
  | "death" ->
    let* volts = num_arg args "volts" in
    Some (Death { volts })
  | "reboot" ->
    let* outage = int_arg args "outage" in
    Some (Reboot { outage })
  | "backup" ->
    let* ok = bool_arg args "ok" in
    let* joules = num_arg args "joules" in
    Some (Backup { ok; joules })
  | "backup_lines" ->
    let* lines = int_arg args "lines" in
    Some (Backup_lines { lines })
  | "restore" ->
    let* joules = num_arg args "joules" in
    Some (Restore { joules })
  | "reexec" ->
    let* discarded = int_arg args "discarded" in
    Some (Reexec { discarded })
  | "replay" ->
    let* stores = int_arg args "stores" in
    Some (Replay { stores })
  | "voltage" ->
    let* volts = num_arg args "volts" in
    Some (Voltage { volts })
  | "halt" -> Some Halt
  | "heartbeat" ->
    let* every = int_arg args "every" in
    let* instructions = int_arg args "instructions" in
    let* reboots = int_arg args "reboots" in
    let* nvm_writes = int_arg args "nvm_writes" in
    Some (Heartbeat { every; instructions; reboots; nvm_writes })
  | "dropped" ->
    let* count = int_arg args "count" in
    Some (Dropped { count })
  | "job_start" ->
    let* key = str_arg args "job" in
    Some (Job_start { key })
  | "job_done" ->
    let* key = str_arg args "job" in
    let* elapsed_s = num_arg args "elapsed_s" in
    Some (Job_done { key; elapsed_s })
  | "job_failed" ->
    let* key = str_arg args "job" in
    let* error = str_arg args "error" in
    Some (Job_failed { key; error })
  | "job_retry" ->
    let* key = str_arg args "job" in
    let* attempt = int_arg args "attempt" in
    Some (Job_retry { key; attempt })
  | "cache_hit" ->
    let* key = str_arg args "job" in
    Some (Cache_hit { key })
  | "worker_spawn" ->
    let* worker = int_arg args "worker" in
    let* pid = int_arg args "pid" in
    Some (Worker_spawn { worker; pid })
  | "worker_dead" ->
    let* worker = int_arg args "worker" in
    let* pid = int_arg args "pid" in
    let* reason = str_arg args "reason" in
    Some (Worker_dead { worker; pid; reason })
  | "fault_inject" ->
    let* trigger = str_arg args "trigger" in
    let* detail = str_arg args "detail" in
    Some (Fault_inject { trigger; detail })
  | "fault_torn" ->
    let* base = int_arg args "base" in
    let* words = int_arg args "words" in
    Some (Fault_torn { base; words })
  | "fault_stuck" ->
    let* bit = int_arg args "bit" in
    let* buf = int_arg args "buf" in
    let* seq = int_arg args "seq" in
    Some (Fault_stuck { bit; buf; seq })
  | "tune_round" ->
    let* strategy = str_arg args "strategy" in
    let* round = int_arg args "round" in
    let* points = int_arg args "points" in
    let* benches = int_arg args "benches" in
    Some (Tune_round { strategy; round; points; benches })
  | "tune_eval" ->
    let* key = str_arg args "job" in
    let* cached = bool_arg args "cached" in
    Some (Tune_eval { key; cached })
  | "tune_prune" ->
    let* key = str_arg args "job" in
    let* budget_ns = num_arg args "budget_ns" in
    Some (Tune_prune { key; budget_ns })
  | "tune_frontier" ->
    let* size = int_arg args "size" in
    let* evals = int_arg args "evals" in
    Some (Tune_frontier { size; evals })
  | "mark" ->
    let* cat = category_of_name cat in
    Some (Mark { name; cat })
  | _ -> None
