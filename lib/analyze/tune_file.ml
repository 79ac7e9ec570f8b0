(* Report renderer for sweeptune's frontier and journal, read through
   their writers' loaders (Sweep_tune.Frontier.load / Journal.load). *)

module Space = Sweep_tune.Space
module Frontier = Sweep_tune.Frontier
module Journal = Sweep_tune.Journal

let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)

let trace_name (p : Space.point) = Sweep_energy.Power_trace.kind_name p.trace

let frontier_section (entries : Frontier.entry list) =
  let rows =
    List.map
      (fun ({ point = p; objs; _ } : Frontier.entry) ->
        [ Space.id p;
          string_of_int p.cache_bytes;
          string_of_int p.assoc;
          string_of_int p.buffer_entries;
          string_of_int p.store_cap;
          string_of_int p.max_unroll;
          Space.farads_label p.farads;
          trace_name p;
          ms objs.runtime_ns;
          Printf.sprintf "%.0f" objs.nvm_writes;
          string_of_int objs.hw_bits ])
      entries
  in
  let benches =
    match entries with
    | [] -> []
    | e :: _ ->
        [ Printf.sprintf "objectives over benches: %s"
            (String.concat ", " e.benches) ]
  in
  {
    Report.title =
      Printf.sprintf "Pareto frontier (%d point%s)" (List.length entries)
        (if List.length entries = 1 then "" else "s");
    headers =
      [ "point"; "cache B"; "ways"; "buf entries"; "store cap"; "unroll";
        "capacitor"; "trace"; "runtime ms"; "NVM writes"; "HW bits" ];
    rows;
    notes =
      "all objectives lower-better: geomean runtime, summed NVM writes, \
       hardware bits"
      :: benches;
  }

(* Per-axis sensitivity over completed journal cells, mirroring the
   paper's one-axis-at-a-time §6 sweeps. *)
let axes : (string * string * (Space.point -> string)) list =
  [
    ("cache size", "cache geometry sweep (§6.8, Fig. 8)",
     fun p -> string_of_int p.cache_bytes);
    ("associativity", "cache geometry sweep (§6.8, Fig. 8)",
     fun p -> string_of_int p.assoc);
    ("buffer entries", "persist-buffer capacity / hardware cost (§6.9)",
     fun p -> string_of_int p.buffer_entries);
    ("store cap", "region store threshold (§6.4)",
     fun p -> string_of_int p.store_cap);
    ("max unroll", "compiler unrolling knob (§4)",
     fun p -> string_of_int p.max_unroll);
    ("capacitor", "capacitor sizing (§6.6, Tab. 2 / Fig. 9)",
     fun p -> Space.farads_label p.farads);
    ("power trace", "ambient power environments (§6.7, Fig. 10)", trace_name);
  ]

let geomean = function
  | [] -> 0.0
  | xs ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let sensitivity_sections (cells : Journal.cell list) =
  let ok =
    List.filter (fun (c : Journal.cell) -> c.completed && not c.failed) cells
  in
  let skipped = List.length cells - List.length ok in
  List.filter_map
    (fun (axis, figure, axis_value) ->
      let value_of (c : Journal.cell) = axis_value c.point in
      let values =
        List.sort_uniq Stdlib.compare (List.map value_of ok)
        (* numeric axes render as digits: sort numerically when possible *)
        |> List.sort (fun a b ->
               match (int_of_string_opt a, int_of_string_opt b) with
               | Some x, Some y -> Stdlib.compare x y
               | _ -> Stdlib.compare a b)
      in
      if List.length values < 2 then None
      else
        let rows =
          List.map
            (fun v ->
              let group = List.filter (fun c -> value_of c = v) ok in
              let n = List.length group in
              let runtime =
                geomean
                  (List.map (fun (c : Journal.cell) -> c.runtime_ns) group)
              in
              let writes =
                List.fold_left
                  (fun acc (c : Journal.cell) ->
                    acc +. float_of_int c.nvm_writes)
                  0.0 group
                /. float_of_int (max 1 n)
              in
              [ v; string_of_int n; ms runtime; Printf.sprintf "%.0f" writes ])
            values
        in
        Some
          {
            Report.title = Printf.sprintf "Sensitivity: %s" axis;
            headers = [ axis; "cells"; "geomean runtime ms"; "mean NVM writes" ];
            rows;
            notes =
              [ figure ]
              @ (if skipped > 0 then
                   [ Printf.sprintf
                       "%d failed/incomplete cell(s) excluded" skipped ]
                 else []);
          })
    axes

let load ?journal frontier =
  match Frontier.load frontier with
  | Error e -> Error e
  | Ok entries ->
    let cells, warnings =
      match Option.map Journal.load journal with
      | None -> ([], [])
      | Some (Ok loaded) -> loaded
      | Some (Error e) -> ([], [ e ])
    in
    let sections = frontier_section entries :: sensitivity_sections cells in
    Ok ({ Report.source = frontier; warnings = []; sections }, warnings)
