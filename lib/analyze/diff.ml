(* Cross-run comparison with machine-readable verdicts: load two runs
   (results JSONL, a bench history file, or a metrics snapshot),
   compare every numeric series of every common key, and judge each
   delta against a percentage threshold using the per-field direction
   declared next to the results schema
   (Sweep_exp.Results.numeric_fields).  `Info fields are reported but
   never gate. *)

module Results = Sweep_exp.Results

type verdict = Regression | Improvement | Unchanged

type delta = {
  key : string;
  field : string;
  base : float;
  cur : float;
  delta_pct : float;
  direction : Results.direction;
  verdict : verdict;
}

type t = {
  threshold_pct : float;
  deltas : delta list;
  missing_in_cur : string list; (* keys only in the baseline *)
  missing_in_base : string list; (* keys only in the current run *)
}

(* A run is just key -> numeric series. *)
type run = (string * (string * float) list) list

(* Sentinel used when the baseline is zero and the current value is
   not: the relative change is undefined, so report an effectively
   infinite delta that always crosses the threshold. *)
let zero_base_sentinel = 1e9

(* ---------------- loading ---------------- *)

(* Numeric projection of a metrics snapshot: counters and gauges as-is,
   histograms as their count and sum. *)
let numeric (snap : Sweep_obs.Metrics.snapshot) =
  List.concat_map
    (fun (name, s) ->
      match s with
      | Sweep_obs.Metrics.Count n -> [ (name, float_of_int n) ]
      | Value v -> [ (name, v) ]
      | Histo { count; sum; _ } ->
        [ (name ^ ".count", float_of_int count); (name ^ ".sum", sum) ])
    snap

let run_of_results records =
  List.map
    (fun r -> (r.Results_file.key, r.Results_file.metrics))
    records

(* Bench history file (see Bench): take the most recent entry. *)
let run_of_bench j =
  match Json.list_member "entries" j with
  | None | Some [] -> Error "bench file has no entries"
  | Some entries -> (
    let last = List.nth entries (List.length entries - 1) in
    match Json.member "results" last with
    | Some (Json.Obj keyed) ->
      Ok
        (List.map
           (fun (key, fields) ->
             let metrics =
               match fields with
               | Json.Obj kvs ->
                 List.filter_map
                   (fun (name, v) ->
                     Option.map (fun f -> (name, f)) (Json.to_float v))
                   kvs
               | _ -> []
             in
             (key, Results_file.with_derived metrics))
           keyed)
    | _ -> Error "bench entry has no results object"
  )

(* Autodetect: a bench history file and a metrics snapshot are single
   JSON documents with a distinctive top-level member; anything else is
   treated as results JSONL. *)
let load path : (run, string) result =
  match Json.parse_file path with
  | Ok (Json.Obj _ as j) when Json.member "entries" j <> None -> (
    match run_of_bench j with
    | Ok r -> Ok r
    | Error e -> Error (path ^ ": " ^ e))
  | Ok (Json.Obj _ as j) when Json.member "metrics" j <> None -> (
    match Sweep_obs.Metrics.of_json j with
    | Ok m -> Ok [ ("metrics", numeric m) ]
    | Error e -> Error (path ^ ": " ^ e))
  | Ok (Json.Obj _ as j) when Json.member "key" j <> None -> (
    (* single-line results JSONL parses as one record *)
    match Results_file.record_of_line j with
    | Some r -> Ok (run_of_results [ r ])
    | None -> Error (path ^ ": unrecognised record"))
  | _ -> (
    match Results_file.load path with
    | Ok records -> Ok (run_of_results records)
    | Error e -> Error e)

(* ---------------- comparison ---------------- *)

let delta_pct ~base ~cur =
  if base = 0.0 then
    if cur = 0.0 then 0.0
    else Float.of_int (compare cur 0.0) *. zero_base_sentinel
  else (cur -. base) /. Float.abs base *. 100.0

let judge ~threshold_pct ~direction ~pct =
  match direction with
  | `Info -> Unchanged
  | (`Lower_better | `Higher_better) as d ->
    if Float.abs pct <= threshold_pct then Unchanged
    else
      let worse =
        match d with
        | `Lower_better -> pct > 0.0
        | `Higher_better -> pct < 0.0
      in
      if worse then Regression else Improvement

let compare_runs ?(direction = Results.direction) ~threshold_pct (base : run)
    (cur : run) =
  let field_direction = direction in
  let keys_of r = List.map fst r in
  let missing_in_cur =
    List.filter (fun k -> not (List.mem_assoc k cur)) (keys_of base)
  in
  let missing_in_base =
    List.filter (fun k -> not (List.mem_assoc k base)) (keys_of cur)
  in
  let common =
    List.filter (fun (k, _) -> List.mem_assoc k cur) base
  in
  if common = [] then Error "no common keys between the two runs"
  else
    let deltas =
      List.concat_map
        (fun (key, bm) ->
          let cm = List.assoc key cur in
          List.filter_map
            (fun (field, bv) ->
              match List.assoc_opt field cm with
              | None -> None
              | Some cv ->
                (* elapsed_s is wall-clock noise: drop it entirely *)
                if field = "elapsed_s" then None
                else
                  let pct = delta_pct ~base:bv ~cur:cv in
                  let direction = field_direction field in
                  Some
                    {
                      key;
                      field;
                      base = bv;
                      cur = cv;
                      delta_pct = pct;
                      direction;
                      verdict = judge ~threshold_pct ~direction ~pct;
                    })
            bm)
        common
    in
    Ok { threshold_pct; deltas; missing_in_cur; missing_in_base }

let count v t =
  List.length (List.filter (fun d -> d.verdict = v) t.deltas)

let regressions t = List.filter (fun d -> d.verdict = Regression) t.deltas
let improvements t = List.filter (fun d -> d.verdict = Improvement) t.deltas
let has_regressions t = regressions t <> []

let diff_files ~threshold_pct base_path cur_path =
  match (load base_path, load cur_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok base, Ok cur -> compare_runs ~threshold_pct base cur

(* ---------------- rendering ---------------- *)

let fmt_pct pct =
  if Float.abs pct >= zero_base_sentinel then
    if pct > 0.0 then "+inf%" else "-inf%"
  else Printf.sprintf "%+.2f%%" pct

let render_text t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let changed =
    List.filter (fun d -> d.verdict <> Unchanged) t.deltas
  in
  if changed = [] then
    line "no changes beyond %.2f%% on any gated series" t.threshold_pct
  else
    List.iter
      (fun d ->
        line "%s  %s.%s  %g -> %g  (%s)"
          (match d.verdict with
          | Regression -> "REGRESSION "
          | Improvement -> "improvement"
          | Unchanged -> "unchanged  ")
          d.key d.field d.base d.cur (fmt_pct d.delta_pct))
      changed;
  List.iter (fun k -> line "missing in current run: %s" k) t.missing_in_cur;
  List.iter (fun k -> line "new in current run: %s" k) t.missing_in_base;
  line "%d regression(s), %d improvement(s), %d series compared at %.2f%%"
    (count Regression t) (count Improvement t) (List.length t.deltas)
    t.threshold_pct;
  Buffer.contents b

let verdict_name = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Unchanged -> "unchanged"

let render_json t =
  let esc = Json.escape_string in
  let delta_json d =
    Printf.sprintf
      "{\"key\":%s,\"field\":%s,\"base\":%.17g,\"cur\":%.17g,\
       \"delta_pct\":%.17g,\"direction\":\"%s\",\"verdict\":\"%s\"}"
      (esc d.key) (esc d.field) d.base d.cur d.delta_pct
      (match d.direction with
      | `Lower_better -> "lower_better"
      | `Higher_better -> "higher_better"
      | `Info -> "info")
      (verdict_name d.verdict)
  in
  let changed = List.filter (fun d -> d.verdict <> Unchanged) t.deltas in
  Printf.sprintf
    "{\"schema_version\":1,\"threshold_pct\":%.17g,\
     \"regressions\":%d,\"improvements\":%d,\"compared\":%d,\
     \"missing_in_cur\":[%s],\"missing_in_base\":[%s],\
     \"deltas\":[%s]}"
    t.threshold_pct (count Regression t) (count Improvement t)
    (List.length t.deltas)
    (String.concat "," (List.map esc t.missing_in_cur))
    (String.concat "," (List.map esc t.missing_in_base))
    (String.concat "," (List.map delta_json changed))
