(* Reader/validator for the --status-file snapshot (Sweep_exp.Status
   output).  Strict on shape so CI catches schema drift the moment the
   writer changes. *)

type running = {
  job : string;
  elapsed_s : float;
  beats : int;
  instructions : int;
  sim_ns : float;
  reboots : int;
  nvm_writes : int;
  instr_per_s : float;
  est_progress : float option;
}

type cohort = {
  cohort : string;
  c_total : int;
  c_queued : int;
  c_running : int;
  c_done : int;
  c_failed : int;
}

type t = {
  schema_version : int;
  ts_s : float;
  elapsed_s : float;
  workers : int;
  total : int;
  queued : int;
  running_n : int;
  done_ : int;
  failed : int;
  retried : int;
  pct_done : float;
  eta_s : float option;
  instr_per_s : float;
  cohorts : cohort list;
  running_shown : int option;
  running : running list;
}

let ( let* ) = Result.bind

let req what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %s" what)

(* null is a legitimate value for eta_s / est_progress; anything else
   must be a number. *)
let opt_float what j =
  match j with
  | None -> Error (Printf.sprintf "missing field %s" what)
  | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_float v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "field %s is neither number nor null" what))

let running_of_json j =
  let* job = req "running[].job" (Json.string_member "job" j) in
  let* elapsed_s = req "running[].elapsed_s" (Json.float_member "elapsed_s" j) in
  let* beats = req "running[].beats" (Json.int_member "beats" j) in
  let* instructions =
    req "running[].instructions" (Json.int_member "instructions" j)
  in
  let* sim_ns = req "running[].sim_ns" (Json.float_member "sim_ns" j) in
  let* reboots = req "running[].reboots" (Json.int_member "reboots" j) in
  let* nvm_writes =
    req "running[].nvm_writes" (Json.int_member "nvm_writes" j)
  in
  let* instr_per_s =
    req "running[].instr_per_s" (Json.float_member "instr_per_s" j)
  in
  let* est_progress = opt_float "running[].est_progress" (Json.member "est_progress" j) in
  Ok
    {
      job;
      elapsed_s;
      beats;
      instructions;
      sim_ns;
      reboots;
      nvm_writes;
      instr_per_s;
      est_progress;
    }

let cohort_of_json j =
  let* cohort = req "cohorts[].cohort" (Json.string_member "cohort" j) in
  let* c_total = req "cohorts[].total" (Json.int_member "total" j) in
  let* c_queued = req "cohorts[].queued" (Json.int_member "queued" j) in
  let* c_running = req "cohorts[].running" (Json.int_member "running" j) in
  let* c_done = req "cohorts[].done" (Json.int_member "done" j) in
  let* c_failed = req "cohorts[].failed" (Json.int_member "failed" j) in
  Ok { cohort; c_total; c_queued; c_running; c_done; c_failed }

let of_json j =
  let* schema_version =
    req "schema_version" (Json.int_member "schema_version" j)
  in
  if
    schema_version <> Sweep_exp.Status.schema_version
    && schema_version <> Sweep_exp.Status.rollup_schema_version
  then
    Error (Printf.sprintf "unsupported status schema_version %d" schema_version)
  else
    let rollup = schema_version = Sweep_exp.Status.rollup_schema_version in
    let* ts_s = req "ts_s" (Json.float_member "ts_s" j) in
    let* elapsed_s = req "elapsed_s" (Json.float_member "elapsed_s" j) in
    let* workers = req "workers" (Json.int_member "workers" j) in
    let* jobs = req "jobs" (Json.member "jobs" j) in
    let* total = req "jobs.total" (Json.int_member "total" jobs) in
    let* queued = req "jobs.queued" (Json.int_member "queued" jobs) in
    let* running_n = req "jobs.running" (Json.int_member "running" jobs) in
    let* done_ = req "jobs.done" (Json.int_member "done" jobs) in
    let* failed = req "jobs.failed" (Json.int_member "failed" jobs) in
    let* retried = req "jobs.retried" (Json.int_member "retried" jobs) in
    let* pct_done = req "jobs.pct_done" (Json.float_member "pct_done" jobs) in
    let* eta_s = opt_float "eta_s" (Json.member "eta_s" j) in
    let* throughput = req "throughput" (Json.member "throughput" j) in
    let* instr_per_s =
      req "throughput.instr_per_s" (Json.float_member "instr_per_s" throughput)
    in
    (* Cohort rollup fields exist exactly in v3 — their absence there,
       or presence in v2, is schema drift. *)
    let* cohorts =
      if not rollup then
        match Json.member "cohorts" j with
        | None -> Ok []
        | Some _ -> Error "unexpected field cohorts in schema_version 2"
      else
        let* cohort_js = req "cohorts" (Json.list_member "cohorts" j) in
        let* cohorts =
          List.fold_left
            (fun acc c ->
              let* acc = acc in
              let* c = cohort_of_json c in
              Ok (c :: acc))
            (Ok []) cohort_js
        in
        Ok (List.rev cohorts)
    in
    let* running_shown =
      if not rollup then
        match Json.member "running_shown" j with
        | None -> Ok None
        | Some _ -> Error "unexpected field running_shown in schema_version 2"
      else
        let* n = req "running_shown" (Json.int_member "running_shown" j) in
        Ok (Some n)
    in
    let* running_js = req "running" (Json.list_member "running" j) in
    let* running =
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let* r = running_of_json r in
          Ok (r :: acc))
        (Ok []) running_js
    in
    Ok
      {
        schema_version;
        ts_s;
        elapsed_s;
        workers;
        total;
        queued;
        running_n;
        done_;
        failed;
        retried;
        pct_done;
        eta_s;
        instr_per_s;
        cohorts;
        running_shown;
        running = List.rev running;
      }

let load path = Json.load path of_json

let validate t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if t.workers < 1 then bad "workers %d < 1" t.workers;
  if t.total < 0 || t.queued < 0 || t.running_n < 0 || t.done_ < 0
     || t.failed < 0 || t.retried < 0
  then bad "negative job count";
  if t.queued + t.running_n + t.done_ + t.failed <> t.total then
    bad "job counts don't add up: %d queued + %d running + %d done + %d failed <> %d total"
      t.queued t.running_n t.done_ t.failed t.total;
  if t.pct_done < 0.0 || t.pct_done > 100.0 then
    bad "pct_done %.2f out of [0, 100]" t.pct_done;
  (match t.eta_s with
  | Some e when e < 0.0 -> bad "eta_s %.1f < 0" e
  | _ -> ());
  List.iter
    (fun c ->
      if
        c.c_total < 0 || c.c_queued < 0 || c.c_running < 0 || c.c_done < 0
        || c.c_failed < 0
      then bad "cohort %s has a negative counter" c.cohort;
      (* An undeclared cohort renders total 0 while jobs move — only a
         declared total is checkable against its parts. *)
      if
        c.c_total > 0
        && c.c_queued + c.c_running + c.c_done + c.c_failed <> c.c_total
      then
        bad
          "cohort %s counts don't add up: %d queued + %d running + %d done + \
           %d failed <> %d total"
          c.cohort c.c_queued c.c_running c.c_done c.c_failed c.c_total)
    t.cohorts;
  (match t.running_shown with
  | None ->
    if List.length t.running <> t.running_n then
      bad "running list has %d entries, jobs.running says %d"
        (List.length t.running) t.running_n
  | Some shown ->
    (* Rollup mode: the running array is capped, so it matches
       running_shown (itself never above the true running count). *)
    if shown < 0 then bad "running_shown %d < 0" shown;
    if shown > t.running_n then
      bad "running_shown %d exceeds jobs.running %d" shown t.running_n;
    if List.length t.running <> shown then
      bad "running list has %d entries, running_shown says %d"
        (List.length t.running) shown);
  List.iter
    (fun r ->
      if r.beats < 0 || r.instructions < 0 || r.reboots < 0 || r.nvm_writes < 0
      then bad "running job %s has a negative counter" r.job;
      match r.est_progress with
      | Some p when p < 0.0 || p > 1.0 ->
        bad "running job %s est_progress %.3f out of [0, 1]" r.job p
      | _ -> ())
    t.running;
  List.rev !problems
