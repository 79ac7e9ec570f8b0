(* Reader for Sweep_obs.Flight.dump artifacts: one header line, the
   ring's event tail as ordinary trace lines, and a closing metrics
   snapshot.  Event lines reuse Trace_reader.parse_line, so the loader
   tracks the sink format for free. *)

module Ev = Sweep_obs.Event

type header = {
  schema_version : int;
  job : string;
  error : string;
  backtrace : string;
  events : int;
  dropped : int;
}

type t = {
  header : header;
  entries : Trace_reader.entry list;
  malformed : int;
  metrics : Sweep_obs.Metrics.snapshot option;
}

let header_of_json j =
  let ( let* ) = Option.bind in
  let* schema_version = Json.int_member "schema_version" j in
  let* kind = Json.string_member "kind" j in
  let* job = Json.string_member "job" j in
  let* error = Json.string_member "error" j in
  let* backtrace = Json.string_member "backtrace" j in
  let* events = Json.int_member "events" j in
  let* dropped = Json.int_member "dropped" j in
  if kind <> "postmortem" then None
  else Some { schema_version; job; error; backtrace; events; dropped }

let load path =
  let step acc _ line =
    match acc with
    | None -> (
      match Option.bind (Result.to_option (Json.parse line)) header_of_json with
      | None ->
        Error
          "not a postmortem artifact (bad header line — expected \
           {\"kind\":\"postmortem\",...})"
      | Some h when h.schema_version <> Sweep_obs.Flight.schema_version ->
        Error
          (Printf.sprintf "unsupported postmortem schema_version %d"
             h.schema_version)
      | Some header ->
        Ok (Some { header; entries = []; malformed = 0; metrics = None }))
    | Some _ when String.trim line = "" -> Ok acc
    | Some t -> (
      match Trace_reader.parse_line line with
      | Some e -> Ok (Some { t with entries = e :: t.entries })
      | None -> (
        (* the one non-event line is the closing metrics snapshot;
           anything else is malformed *)
        match Result.bind (Json.parse line) Sweep_obs.Metrics.of_json with
        | Ok m -> Ok (Some { t with metrics = Some m })
        | Error _ -> Ok (Some { t with malformed = t.malformed + 1 })))
  in
  match Json.fold_lines path ~init:None step with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok None -> Error (path ^ ": empty file")
  | Ok (Some t) -> Ok { t with entries = List.rev t.entries }

let take_last n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let fmt_ns ns =
  if Float.abs ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
  else if Float.abs ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let report ?(tail = 25) ~source t =
  let h = t.header in
  let failure =
    {
      Report.title = "Post-mortem";
      headers = [ "quantity"; "value" ];
      rows =
        [
          [ "job"; h.job ];
          [ "error"; h.error ];
          [ "ring events"; string_of_int h.events ];
          [ "ring dropped"; string_of_int h.dropped ];
        ];
      notes =
        (Printf.sprintf "source: %s" source)
        :: (if h.backtrace = "" then []
            else [ "backtrace: " ^ first_line h.backtrace ])
        @
        if h.dropped > 0 then
          [
            Printf.sprintf
              "ring overflowed: %d earlier events were dropped (fault \
               events are pinned and survive)."
              h.dropped;
          ]
        else [];
    }
  in
  let shown = take_last tail t.entries in
  let events =
    {
      Report.title = Printf.sprintf "Last %d events" (List.length shown);
      headers = [ "t"; "category"; "event"; "args" ];
      rows =
        List.map
          (fun e ->
            [
              fmt_ns e.Trace_reader.ns;
              Ev.category_name (Ev.category e.Trace_reader.event);
              Ev.tag e.Trace_reader.event;
              Ev.json_args e.Trace_reader.event;
            ])
          shown;
      notes =
        (if List.length t.entries > List.length shown then
           [
             Printf.sprintf "%d earlier events omitted (ring holds %d)."
               (List.length t.entries - List.length shown)
               (List.length t.entries);
           ]
         else [])
        @
        if t.malformed > 0 then
          [ Printf.sprintf "%d malformed lines skipped." t.malformed ]
        else [];
    }
  in
  let warnings =
    if t.malformed > 0 then
      [ Printf.sprintf "%d malformed artifact lines skipped" t.malformed ]
    else []
  in
  let sections =
    [ failure; events ]
    @
    match t.metrics with
    | Some m ->
      [
        {
          Report.title = "Metrics at failure";
          headers = [ "series"; "value" ];
          rows =
            List.map
              (fun (name, v) -> [ name; Printf.sprintf "%g" v ])
              (Diff.numeric m);
          notes = [];
        };
      ]
    | None -> []
  in
  { Report.source; warnings; sections }
