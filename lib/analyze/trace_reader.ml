(* Streaming reader for the JSONL event trace (Sweep_obs.Jsonl_sink
   output, or a Ring drained through it).  Lines are parsed one at a
   time — a multi-hour trace never has to fit in memory — and decoded
   back into typed events through Sweep_obs.Event.of_parts, so the
   constructor list and this reader cannot drift apart. *)

module Ev = Sweep_obs.Event

type entry = { ns : float; event : Ev.t }

type stats = {
  lines : int;       (* non-empty lines seen *)
  parsed : int;      (* lines decoded into events *)
  malformed : int;   (* lines rejected (bad JSON or unknown layout) *)
  dropped : int;     (* events lost before the trace was written
                        (sum of Dropped payloads; 0 = complete trace) *)
}

let empty_stats = { lines = 0; parsed = 0; malformed = 0; dropped = 0 }

(* The JSONL layout fields that are not event payload. *)
let meta_fields = [ "ns"; "ev"; "name"; "cat" ]

let parse_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    match
      ( Json.float_member "ns" j,
        Json.string_member "ev" j,
        Json.string_member "name" j,
        Json.string_member "cat" j,
        Json.to_obj j )
    with
    | Some ns, Some tag, Some name, Some cat, Some fields ->
      let args =
        List.filter (fun (k, _) -> not (List.mem k meta_fields)) fields
      in
      Option.map
        (fun event -> { ns; event })
        (Ev.of_parts ~tag ~name ~cat ~args)
    | _ -> None)

let fold path ~init ~f =
  Json.fold_lines path ~init:(init, empty_stats) (fun (acc, s) _ line ->
      if String.trim line = "" then Ok (acc, s)
      else
        match parse_line line with
        | Some entry ->
          let dropped =
            match entry.event with
            | Ev.Dropped { count } -> s.dropped + count
            | _ -> s.dropped
          in
          Ok
            ( f acc entry,
              { s with lines = s.lines + 1; parsed = s.parsed + 1; dropped } )
        | None ->
          Ok (acc, { s with lines = s.lines + 1; malformed = s.malformed + 1 }))
  |> Result.map_error (fun e -> path ^ ": " ^ e)

let read_all path =
  Result.map
    (fun (entries, stats) -> (List.rev entries, stats))
    (fold path ~init:[] ~f:(fun acc e -> e :: acc))
