(* Live status aggregation: heartbeats and job transitions from worker
   domains fold into one mutex-guarded structure, periodically rendered
   to an atomically-renamed status.json for `watch`/dashboards.

   All wall-clock derived fields (ETA, instr/s) are estimates; the file
   is ephemeral operational telemetry, not a determinism surface — the
   byte-identical outputs are the results store and the journal. *)

module Hb = Sweep_obs.Heartbeat
module Ev = Sweep_obs.Event

let schema_version = 2
let rollup_schema_version = 3

type cohort = {
  mutable c_total : int;  (* declared population; 0 until declared *)
  mutable c_started : int;  (* running + done + failed *)
  mutable c_done : int;
  mutable c_failed : int;
}

type job = {
  key : string;
  started_s : float;
  mutable instructions : int;
  mutable sim_ns : float;
  mutable reboots : int;
  mutable nvm_writes : int;
  mutable beats : int;
}

type t = {
  path : string;
  interval_s : float;
  workers : int;
  created_s : float;
  lock : Mutex.t;
  running : (string, job) Hashtbl.t;
  (* Cohort rollup mode (fleet runs): [rollup] maps a job key to its
     cohort, per-cohort counters replace unbounded per-job detail, and
     the running array is capped at [max_running] — status.json stays
     O(cohorts + cap) instead of O(devices). *)
  rollup : (string -> string) option;
  max_running : int;
  cohorts : (string, cohort) Hashtbl.t;
  mutable cohort_order : string list; (* reversed declaration order *)
  mutable total : int;
  mutable started : int;
  mutable done_ : int;
  mutable failed : int;
  mutable retried : int;  (* requeued attempts; not part of the total sum *)
  mutable elapsed_done_s : float;  (* wall time summed over finished jobs *)
  mutable sim_done_ns : float;  (* simulated time summed over ok jobs *)
  mutable ok : int;
  mutable last_write_s : float;
}

let create ~path ?(interval_s = 0.5) ?rollup ?(max_running = 16) ~workers () =
  {
    path;
    interval_s;
    workers = max 1 workers;
    created_s = Unix.gettimeofday ();
    lock = Mutex.create ();
    running = Hashtbl.create 16;
    rollup;
    max_running = max 0 max_running;
    cohorts = Hashtbl.create 8;
    cohort_order = [];
    total = 0;
    started = 0;
    done_ = 0;
    failed = 0;
    retried = 0;
    elapsed_done_s = 0.0;
    sim_done_ns = 0.0;
    ok = 0;
    last_write_s = neg_infinity;
  }

let js = Sweep_util.Json.escape_string

(* Cohort table access (lock held).  Undeclared cohorts appear on first
   use with total 0 — their queued count renders as 0 until declared. *)
let cohort_locked t name =
  match Hashtbl.find_opt t.cohorts name with
  | Some c -> c
  | None ->
    let c = { c_total = 0; c_started = 0; c_done = 0; c_failed = 0 } in
    Hashtbl.replace t.cohorts name c;
    t.cohort_order <- name :: t.cohort_order;
    c

let on_cohort_locked t key f =
  match t.rollup with
  | None -> ()
  | Some cohort_of -> f (cohort_locked t (cohort_of key))

let render_locked t ~now =
  let b = Buffer.create 512 in
  let queued = max 0 (t.total - t.started) in
  let mean_elapsed =
    if t.done_ + t.failed > 0 then
      t.elapsed_done_s /. float_of_int (t.done_ + t.failed)
    else 0.0
  in
  let mean_sim_ns =
    if t.ok > 0 then t.sim_done_ns /. float_of_int t.ok else 0.0
  in
  let running = Hashtbl.fold (fun _ j acc -> j :: acc) t.running [] in
  let running = List.sort (fun a b -> compare a.key b.key) running in
  let running_elapsed =
    List.fold_left (fun acc j -> acc +. (now -. j.started_s)) 0.0 running
  in
  (* Remaining wall-work estimate from the mean finished-job time,
     credited with the time already sunk into running jobs, spread
     over the pool. *)
  let eta_s =
    if t.done_ + t.failed = 0 then None
    else
      let left = queued + List.length running in
      let work = (float_of_int left *. mean_elapsed) -. running_elapsed in
      Some (Float.max 0.0 (work /. float_of_int t.workers))
  in
  let pct_done =
    if t.total = 0 then 100.0
    else float_of_int (t.done_ + t.failed) *. 100.0 /. float_of_int t.total
  in
  let version =
    if t.rollup = None then schema_version else rollup_schema_version
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema_version\":%d,\"ts_s\":%.3f,\"elapsed_s\":%.3f,\"workers\":%d,"
       version now (now -. t.created_s) t.workers);
  Buffer.add_string b
    (Printf.sprintf
       "\"jobs\":{\"total\":%d,\"queued\":%d,\"running\":%d,\"done\":%d,\"failed\":%d,\"retried\":%d,\"pct_done\":%.2f},"
       t.total queued (List.length running) t.done_ t.failed t.retried
       pct_done);
  (match eta_s with
  | Some e -> Buffer.add_string b (Printf.sprintf "\"eta_s\":%.1f," e)
  | None -> Buffer.add_string b "\"eta_s\":null,");
  let total_ips =
    List.fold_left
      (fun acc j ->
        let dt = now -. j.started_s in
        if dt > 0.0 then acc +. (float_of_int j.instructions /. dt) else acc)
      0.0 running
  in
  Buffer.add_string b
    (Printf.sprintf "\"throughput\":{\"instr_per_s\":%.0f}," total_ips);
  (* Rollup mode: one bounded record per cohort (declared order, then
     first-seen), and the per-job array below is capped. *)
  let running =
    if t.rollup = None then running
    else begin
      let order = List.rev t.cohort_order in
      Buffer.add_string b "\"cohorts\":[";
      List.iteri
        (fun i name ->
          let c = Hashtbl.find t.cohorts name in
          if i > 0 then Buffer.add_char b ',';
          let c_running = max 0 (c.c_started - c.c_done - c.c_failed) in
          Buffer.add_string b
            (Printf.sprintf
               "{\"cohort\":%s,\"total\":%d,\"queued\":%d,\"running\":%d,\
                \"done\":%d,\"failed\":%d}"
               (js name) c.c_total
               (max 0 (c.c_total - c.c_started))
               c_running c.c_done c.c_failed))
        order;
      Buffer.add_string b "],";
      let shown = min (List.length running) t.max_running in
      Buffer.add_string b (Printf.sprintf "\"running_shown\":%d," shown);
      List.filteri (fun i _ -> i < shown) running
    end
  in
  Buffer.add_string b "\"running\":[";
  List.iteri
    (fun i j ->
      if i > 0 then Buffer.add_char b ',';
      let dt = now -. j.started_s in
      let ips = if dt > 0.0 then float_of_int j.instructions /. dt else 0.0 in
      (* % complete is an estimate against the mean simulated time of
         the jobs finished so far — capped below 100 because a slow
         cell can legitimately exceed the mean. *)
      let progress =
        if mean_sim_ns > 0.0 && j.sim_ns > 0.0 then
          Printf.sprintf "%.3f" (Float.min 0.99 (j.sim_ns /. mean_sim_ns))
        else "null"
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"job\":%s,\"elapsed_s\":%.3f,\"beats\":%d,\"instructions\":%d,\"sim_ns\":%.17g,\"reboots\":%d,\"nvm_writes\":%d,\"instr_per_s\":%.0f,\"est_progress\":%s}"
           (js j.key) dt j.beats j.instructions j.sim_ns j.reboots
           j.nvm_writes ips progress))
    running;
  Buffer.add_string b "]}";
  Buffer.contents b

(* Atomic publication: scrape-side readers either see the previous
   snapshot or this one, never a torn write. *)
let write_locked t ~now =
  t.last_write_s <- now;
  let line = render_locked t ~now in
  Sweep_util.Durable.write_atomic t.path (fun oc ->
      output_string oc line;
      output_char oc '\n')

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let write t =
  with_lock t (fun () -> write_locked t ~now:(Unix.gettimeofday ()))

let maybe_write_locked t =
  let now = Unix.gettimeofday () in
  if now -. t.last_write_s >= t.interval_s then write_locked t ~now

let add_total t n = with_lock t (fun () -> t.total <- t.total + n)

let declare_cohort t ~name ~total =
  with_lock t (fun () ->
      let c = cohort_locked t name in
      c.c_total <- c.c_total + total)

let job_started t ~key =
  with_lock t (fun () ->
      let now = Unix.gettimeofday () in
      t.started <- t.started + 1;
      on_cohort_locked t key (fun c -> c.c_started <- c.c_started + 1);
      Hashtbl.replace t.running key
        {
          key;
          started_s = now;
          instructions = 0;
          sim_ns = 0.0;
          reboots = 0;
          nvm_writes = 0;
          beats = 0;
        };
      maybe_write_locked t)

let beat_counts t ~key ~instructions ~sim_ns ~reboots ~nvm_writes ~beats =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.running key with
      | Some j ->
        j.instructions <- instructions;
        j.sim_ns <- sim_ns;
        j.reboots <- reboots;
        j.nvm_writes <- nvm_writes;
        j.beats <- beats
      | None -> ());
      maybe_write_locked t)

let beat t ~key (hb : Hb.t) =
  beat_counts t ~key ~instructions:hb.Hb.instructions ~sim_ns:(Hb.sim_ns hb)
    ~reboots:hb.Hb.reboots ~nvm_writes:hb.Hb.nvm_writes ~beats:(Hb.beats hb)

(* A retried job leaves the running set and returns to the queue: undo
   its [started] increment so queued+running+done+failed still sums to
   total, and count the failed attempt separately. *)
let job_retried t ~key =
  with_lock t (fun () ->
      if Hashtbl.mem t.running key then begin
        Hashtbl.remove t.running key;
        t.started <- t.started - 1;
        t.retried <- t.retried + 1;
        on_cohort_locked t key (fun c -> c.c_started <- c.c_started - 1)
      end;
      maybe_write_locked t)

let job_finished t ~key ~ok ~elapsed_s ~sim_ns =
  with_lock t (fun () ->
      Hashtbl.remove t.running key;
      if ok then begin
        t.done_ <- t.done_ + 1;
        t.ok <- t.ok + 1;
        t.sim_done_ns <- t.sim_done_ns +. sim_ns;
        on_cohort_locked t key (fun c -> c.c_done <- c.c_done + 1)
      end
      else begin
        t.failed <- t.failed + 1;
        on_cohort_locked t key (fun c -> c.c_failed <- c.c_failed + 1)
      end;
      t.elapsed_done_s <- t.elapsed_done_s +. elapsed_s;
      maybe_write_locked t)
