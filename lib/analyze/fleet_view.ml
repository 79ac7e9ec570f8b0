(* Renderer for fleet.json (sweepfleet's aggregated report).  The file
   is read by the fleet library's own parsers — the spec through
   Spec.of_json, the sketch through Sketch.of_json — and quantiles use
   the sketch's read-back rule, so the report and the journal can never
   disagree about the format. *)

module Spec = Sweep_fleet.Spec
module Sketch = Sweep_fleet.Sketch

type t = { spec : Spec.t; spec_digest : string; state : Sketch.t }

let ( let* ) = Result.bind

let of_json j =
  let field name =
    Option.to_result ~none:("missing or mistyped field " ^ name)
  in
  let* spec = Result.bind (field "spec" (Json.member "spec" j)) Spec.of_json in
  let* spec_digest =
    field "spec_digest" (Json.string_member "spec_digest" j)
  in
  let* state =
    Result.bind (field "state" (Json.member "state" j)) Sketch.of_json
  in
  Ok { spec; spec_digest; state }

let load path = Json.load path of_json

(* ---------------- rendering ---------------- *)

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let cell = function None -> "-" | Some v -> fnum v

let quantile_row label (h : Sketch.hist) =
  let q = Sketch.quantile h in
  [
    label;
    string_of_int h.count;
    cell (Sketch.mean h);
    cell (if h.count = 0 then None else Some h.minv);
    cell (q 0.5);
    cell (q 0.9);
    cell (q 0.99);
    cell (q 0.999);
    cell (if h.count = 0 then None else Some h.maxv);
  ]

let dist_headers =
  [ "metric"; "n"; "mean"; "min"; "p50"; "p90"; "p99"; "p99.9"; "max" ]

let group_rows (g : Sketch.group) =
  [
    quantile_row "rate (instr/s)" g.h_rate;
    quantile_row "energy (J)" g.h_energy;
    quantile_row "reboots" g.h_reboots;
    quantile_row "survival" g.h_survival;
  ]

let summary_section { spec; state; _ } =
  let failed_ids = List.rev state.Sketch.failed_ids in
  {
    Report.title = "Fleet summary";
    headers = [ "field"; "value" ];
    rows =
      [
        [ "fleet"; spec.Spec.name ];
        [ "bench"; spec.bench ];
        [ "design"; Spec.design_name spec.design ];
        [ "trace"; Sweep_energy.Power_trace.kind_name spec.trace ];
        [ "scale"; fnum spec.scale ];
        [ "seed"; string_of_int spec.seed ];
        [ "devices"; string_of_int spec.devices ];
        [ "aggregated"; string_of_int (Sketch.devices state) ];
        [ "failed"; string_of_int state.failed_total ];
      ];
    notes =
      (if failed_ids = [] then []
       else
         [
           Printf.sprintf "failed device ids%s: %s"
             (if state.failed_total > List.length failed_ids then
                Printf.sprintf " (first %d of %d)" (List.length failed_ids)
                  state.failed_total
              else "")
             (String.concat ", " (List.map string_of_int failed_ids));
         ]);
  }

let distribution_section t =
  {
    Report.title = "Fleet distributions";
    headers = dist_headers;
    rows = group_rows t.state.Sketch.total;
    notes =
      [
        "quantiles are upper bin edges (log bins, <=33% relative error; \
         reboot counts exact below 511), clamped to the observed min/max";
      ];
  }

let cohort_section t =
  let st = t.state in
  {
    Report.title = "Cohorts";
    headers =
      [ "cohort"; "devices"; "failed"; "rate p50"; "rate p99"; "energy p50";
        "reboots p99"; "survival p50" ];
    rows =
      List.map
        (fun name ->
          let g = Hashtbl.find st.Sketch.cohorts name in
          [
            name;
            string_of_int g.Sketch.devices;
            string_of_int g.failed;
            cell (Sketch.quantile g.h_rate 0.5);
            cell (Sketch.quantile g.h_rate 0.99);
            cell (Sketch.quantile g.h_energy 0.5);
            cell (Sketch.quantile g.h_reboots 0.99);
            cell (Sketch.quantile g.h_survival 0.5);
          ])
        (List.rev st.cohort_order);
    notes = [];
  }

let tail_section t =
  let tails = t.state.Sketch.tails in
  {
    Report.title = "Tail devices (slowest forward progress)";
    headers = [ "device"; "cohort"; "rate"; "energy (J)"; "reboots"; "survival" ];
    rows =
      List.map
        (fun (e : Sketch.tail) ->
          [
            string_of_int e.t_id;
            e.t_arm;
            fnum e.t_rate;
            fnum e.t_energy;
            string_of_int e.t_reboots;
            fnum e.t_survival;
          ])
        tails;
    notes =
      List.map
        (fun (e : Sketch.tail) ->
          Printf.sprintf "replay device %d: sweepsim %s" e.t_id e.t_replay)
        tails;
  }

let report ~source t =
  {
    Report.source;
    warnings = [];
    sections =
      [
        summary_section t;
        distribution_section t;
        cohort_section t;
        tail_section t;
      ];
  }
