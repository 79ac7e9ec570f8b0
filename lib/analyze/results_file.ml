(* Reader for the results JSONL files (Sweep_exp.Results schema v1/v2):
   one record per key, last line wins when a file accumulated several
   runs of the same job.  Adds the derived total_ns / total_joules
   series next to the raw fields. *)

module Results = Sweep_exp.Results

type record = {
  key : string;
  experiment : string;
  design : string;
  bench : string;
  metrics : (string * float) list;
}

let sum_opt metrics names =
  let vals = List.filter_map (fun n -> List.assoc_opt n metrics) names in
  if vals = [] then None else Some (List.fold_left ( +. ) 0.0 vals)

let with_derived metrics =
  let add name names metrics =
    match sum_opt metrics names with
    | Some v -> metrics @ [ (name, v) ]
    | None -> metrics
  in
  metrics
  |> add "total_ns" [ "on_ns"; "off_ns" ]
  |> add "total_joules"
       [ "compute_joules"; "backup_joules"; "restore_joules";
         "quiescent_joules" ]

let record_of_line j =
  match Json.string_member "key" j with
  | None -> None
  | Some key ->
    let str k = Option.value ~default:"" (Json.string_member k j) in
    let metrics =
      List.filter_map
        (fun (name, _) ->
          Option.map (fun v -> (name, v)) (Json.float_member name j))
        Results.numeric_fields
    in
    Some
      {
        key;
        experiment = str "experiment";
        design = str "design";
        bench = str "bench";
        metrics = with_derived metrics;
      }

let load path =
  let step (records, malformed) _ line =
    if String.trim line = "" then Ok (records, malformed)
    else
      match Option.bind (Result.to_option (Json.parse line)) record_of_line with
      | Some r ->
        (* last line per key wins *)
        Ok (r :: List.filter (fun x -> x.key <> r.key) records, malformed)
      | None -> Ok (records, malformed + 1)
  in
  match Json.fold_lines path ~init:([], 0) step with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok ([], malformed) ->
    Error
      (Printf.sprintf "%s: no parseable result lines (%d malformed)" path
         malformed)
  | Ok (records, _) -> Ok (List.rev records)
