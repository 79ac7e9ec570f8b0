(* §6.3 region-level parallelism efficiency and §4.4 empty-bit search
   statistics (bypass rate, average buffer occupancy at misses). *)
module H = Sweep_sim.Harness
module C = Exp_common
module Mstats = Sweep_machine.Mstats
module Sweepcache = Sweepcache_core.Sweepcache
module Trace = Sweep_energy.Power_trace
module Table = Sweep_util.Table

(* The §4.4 avg-fill column drives a concrete SweepCache instance and is
   computed at render time; everything else reads the results store. *)
let jobs () =
  Jobs.matrix ~exp:"par"
    ~powers:[ Jobs.unlimited; Jobs.harvested Trace.Rf_office ]
    [ C.sweep_empty_bit ] C.all_names

let efficiency bench ~power =
  Mstats.parallelism_efficiency (C.run C.sweep_empty_bit ~power bench).C.mstats

(* Average persist-buffer occupancy seen by cache misses (loads and
   stores: both consult the buffers) needs the concrete SweepCache
   instance, so drive one directly. *)
let avg_fill bench =
  let w = Sweep_workloads.Registry.find bench in
  let ast = Sweep_workloads.Workload.program w in
  let compiled = H.compile H.Sweep ast in
  let instance =
    Sweepcache.create Sweep_machine.Config.default
      compiled.Sweep_compiler.Pipeline.program
  in
  ignore
    (Sweep_sim.Driver.run (Sweepcache.pack instance)
       ~power:Sweep_sim.Driver.Unlimited);
  Sweepcache.avg_buffer_fill_at_miss instance

let run () =
  Printf.printf "== §6.3 — region-level parallelism efficiency ==\n";
  let power_rf = C.power (C.rf_office ()) in
  let t = Table.create [ "benchmark"; "eff% (no outage)"; "eff% (RFOffice)" ] in
  let no_out = ref [] and out = ref [] in
  List.iter
    (fun bench ->
      let e1 = efficiency bench ~power:Sweep_sim.Driver.Unlimited in
      let e2 = efficiency bench ~power:power_rf in
      no_out := e1 :: !no_out;
      out := e2 :: !out;
      Table.add_float_row t bench [ e1; e2 ])
    C.all_names;
  Table.add_float_row t "average"
    [ Sweep_util.Stats.mean !no_out; Sweep_util.Stats.mean !out ];
  Table.print t;
  print_newline ();
  Printf.printf "== §4.4 — empty-bit buffer-search statistics (no outage) ==\n";
  let t =
    Table.create
      [ "benchmark"; "searches"; "bypasses"; "bypass%"; "buffer hits";
        "avg fill@miss" ]
  in
  let tot_s = ref 0 and tot_b = ref 0 in
  List.iter
    (fun bench ->
      let r = C.run C.sweep_empty_bit ~power:Sweep_sim.Driver.Unlimited bench in
      let st = r.C.mstats in
      let searches = st.Mstats.buffer_searches in
      let bypasses = st.Mstats.buffer_bypasses in
      tot_s := !tot_s + searches;
      tot_b := !tot_b + bypasses;
      let pct =
        if searches + bypasses = 0 then 100.0
        else 100.0 *. float_of_int bypasses /. float_of_int (searches + bypasses)
      in
      Table.add_row t
        [
          bench;
          string_of_int searches;
          string_of_int bypasses;
          Table.float_cell pct;
          string_of_int st.Mstats.buffer_hits;
          Printf.sprintf "%.5f" (avg_fill bench);
        ])
    C.all_names;
  let pct =
    if !tot_s + !tot_b = 0 then 100.0
    else 100.0 *. float_of_int !tot_b /. float_of_int (!tot_s + !tot_b)
  in
  Table.add_row t
    [ "total"; string_of_int !tot_s; string_of_int !tot_b; Table.float_cell pct ];
  Table.print t;
  print_newline ()
