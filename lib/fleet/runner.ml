(* Chunked, resumable fleet execution.

   The population is walked in canonical device order (id 0, 1, 2, …)
   in fixed-size chunks.  Each chunk instantiates its devices, ships
   their jobs to the executor (domain pool or supervised worker fleet —
   whatever the config says), then folds every device's outcome into
   the streaming sketch *sequentially, in device order*, clears the
   in-memory results store, and appends one cumulative journal line.
   The fold never runs concurrently with anything, so the sketch's
   float sums are bit-identical at any -j / --workers; the journal
   advances in whole chunks, so a killed run resumes at the last chunk
   boundary and finishes with byte-identical state.

   Memory is O(chunk + sketch): a 100k-device fleet never holds more
   than one chunk of summaries. *)

module Jobs = Sweep_exp.Jobs
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module Status = Sweep_exp.Status
module Json = Sweep_util.Json
module Durable = Sweep_util.Durable

let journal_schema_version = 1
let default_chunk = 256

exception Interrupted of { folded : int }

type outcome = {
  state : Sketch.t;
  resumed_from : int;
  report_path : string;
}

let journal_path dir = Filename.concat dir "fleet.journal"
let report_path dir = Filename.concat dir "fleet.json"

(* Devices per arm (spec order) and the number of distinct job keys —
   what `sweepfleet plan` prints and what seeds the status cohorts. *)
let census (spec : Spec.t) =
  let counts = Hashtbl.create 8 in
  let seen = Hashtbl.create 1024 in
  let unique = ref 0 in
  for id = 0 to spec.Spec.devices - 1 do
    let d = Device.instantiate spec ~id in
    let arm = d.Device.arm.Spec.arm_name in
    Hashtbl.replace counts arm
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts arm));
    let key = Device.key spec d in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      incr unique
    end
  done;
  ( List.map
      (fun a ->
        ( a.Spec.arm_name,
          Option.value ~default:0 (Hashtbl.find_opt counts a.Spec.arm_name) ))
      spec.Spec.arms,
    !unique )

(* One cumulative journal line: everything needed to resume is in the
   last committed line. *)
let journal_line ~digest ~done_ state =
  Printf.sprintf
    "{\"schema_version\":%d,\"spec_digest\":%S,\"done\":%d,\"state\":%s}"
    journal_schema_version digest done_ (Sketch.render state)

(* The last committed line wins, and every committed line must decode;
   a torn tail (the kill arrived mid-write) is skipped.  A line whose
   digest disagrees is a hard error — the spec file changed under an
   existing journal. *)
let load_journal path ~digest ~devices =
  if not (Sys.file_exists path) then Ok None
  else
    let step _ lineno line =
      let malformed = Error (Printf.sprintf "malformed journal line %d" lineno) in
      match Json.parse line with
      | Error _ -> malformed
      | Ok j -> (
        match
          ( Json.int_member "schema_version" j,
            Json.string_member "spec_digest" j,
            Json.int_member "done" j,
            Json.member "state" j )
        with
        | Some v, _, _, _ when v <> journal_schema_version ->
          Error (Printf.sprintf "unsupported journal schema_version %d" v)
        | Some _, Some d, _, _ when d <> digest ->
          Error
            "journal belongs to a different spec (digest mismatch) — \
             remove it or restore the original spec"
        | Some _, Some _, Some done_, Some state_js -> (
          match Sketch.of_json state_js with
          | Error e -> Error e
          | Ok _ when done_ < 0 || done_ > devices ->
            Error (Printf.sprintf "journal cursor %d out of range" done_)
          | Ok st -> Ok (Some (st, done_)))
        | _ -> malformed)
    in
    match Durable.fold_log path ~init:None step with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok (last, _) -> Ok last

let declare_status_cohorts (spec : Spec.t) exec_config =
  match exec_config with
  | Some cfg -> (
    match cfg.Executor.status with
    | Some st ->
      let per_arm, _ = census spec in
      List.iter
        (fun (name, total) -> Status.declare_cohort st ~name ~total)
        per_arm
    | None -> ())
  | None -> ()

let write_report ~dir spec state =
  let path = report_path dir in
  Durable.write_atomic path (fun oc ->
      Printf.fprintf oc
        "{\"schema_version\":%d,\"spec_digest\":%S,\"spec\":%s,\"state\":%s}\n"
        journal_schema_version (Spec.digest spec) (Spec.render spec)
        (Sketch.render state));
  path

let run ?workers ?exec_config ?kill_after ?(chunk = default_chunk) ~dir spec =
  (match Spec.validate spec with
  | [] -> ()
  | p :: _ -> invalid_arg ("Runner.run: " ^ p));
  let chunk = max 1 chunk in
  Durable.mkdir_p dir;
  let digest = Spec.digest spec in
  let journal = journal_path dir in
  match load_journal journal ~digest ~devices:spec.Spec.devices with
  | Error e -> Error e
  | Ok resume ->
    let state, start =
      match resume with None -> (Sketch.create (), 0) | Some (s, d) -> (s, d)
    in
    declare_status_cohorts spec exec_config;
    let folded_this_run = ref 0 in
    Durable.with_log journal (fun log ->
        let rec loop d =
          if d >= spec.Spec.devices then ()
          else begin
            let hi = min spec.Spec.devices (d + chunk) in
            let devices =
              List.init (hi - d) (fun i ->
                  Device.instantiate spec ~id:(d + i))
            in
            Executor.execute ?workers ?config:exec_config
              (List.map (Device.job spec) devices);
            (* Sequential fold in device order — the byte-identity
               contract lives here, not in the executor. *)
            List.iter
              (fun dev ->
                let arm = dev.Device.arm.Spec.arm_name in
                match Results.find (Device.key spec dev) with
                | Some s ->
                  Sketch.fold_device state ~id:dev.Device.id ~arm
                    ~replay:(Device.replay_args spec dev)
                    s.Results.outcome
                | None ->
                  Sketch.fold_failure state ~id:dev.Device.id ~arm)
              devices;
            (* Bound memory: summaries of this chunk are folded, the
               store can go.  (The persistent rcache, if configured,
               still remembers them across runs.) *)
            Results.clear ();
            Durable.append log (journal_line ~digest ~done_:hi state);
            folded_this_run := !folded_this_run + (hi - d);
            (match kill_after with
            | Some n when n >= 0 && !folded_this_run >= n
                          && hi < spec.Spec.devices ->
              raise (Interrupted { folded = hi })
            | _ -> ());
            loop hi
          end
        in
        loop start);
    let path = write_report ~dir spec state in
    Ok { state; resumed_from = start; report_path = path }
