type t = {
  name : string;
  title : string;
  heavy : bool;
  jobs : unit -> Jobs.t list;
  render : unit -> unit;
}

let all =
  [
    { name = "tab1"; title = "Table 1: simulation configuration";
      heavy = false; jobs = Exp_tab1.jobs; render = Exp_tab1.run };
    { name = "fig5"; title = "Fig 5: speedups, no power failure";
      heavy = false; jobs = Exp_fig5.jobs; render = Exp_fig5.run };
    { name = "fig6"; title = "Fig 6: speedups, RFHome trace";
      heavy = false; jobs = Exp_outage.jobs_rfhome;
      render = Exp_outage.run_rfhome };
    { name = "fig7"; title = "Fig 7: speedups, RFOffice trace";
      heavy = false; jobs = Exp_outage.jobs_rfoffice;
      render = Exp_outage.run_rfoffice };
    { name = "tab2"; title = "Table 2: power outages vs capacitor";
      heavy = true; jobs = Exp_capacitor.jobs_table2;
      render = Exp_capacitor.run_table2 };
    { name = "fig8"; title = "Fig 8: speedups vs cache size";
      heavy = true; jobs = Exp_cache_size.jobs; render = Exp_cache_size.run };
    { name = "fig9"; title = "Fig 9: speedups vs capacitor size";
      heavy = true; jobs = Exp_capacitor.jobs_fig9;
      render = Exp_capacitor.run_fig9 };
    { name = "fig10"; title = "Fig 10: speedups vs power trace";
      heavy = false; jobs = Exp_traces.jobs; render = Exp_traces.run };
    { name = "fig11"; title = "Fig 11: propagation-delay sensitivity";
      heavy = true; jobs = Exp_propagation.jobs; render = Exp_propagation.run };
    { name = "fig12"; title = "Fig 12: region size / store count CDFs";
      heavy = false; jobs = Exp_regions.jobs_fig12;
      render = Exp_regions.run_fig12 };
    { name = "threshold"; title = "S6.4: store-threshold sensitivity";
      heavy = true; jobs = Exp_regions.jobs_threshold;
      render = Exp_regions.run_threshold };
    { name = "par"; title = "S6.3/S4.4: parallelism efficiency, empty-bit";
      heavy = false; jobs = Exp_parallelism.jobs;
      render = Exp_parallelism.run };
    { name = "icount"; title = "S6.5: instruction counts";
      heavy = false; jobs = Exp_instcount.jobs; render = Exp_instcount.run };
    { name = "fig13"; title = "S6.6/Fig 13: energy breakdown";
      heavy = false; jobs = Exp_energy.jobs; render = Exp_energy.run };
    { name = "fig14"; title = "Fig 14: SweepCache vs NvMR";
      heavy = true; jobs = Exp_nvmr.jobs; render = Exp_nvmr.run };
    { name = "fig15"; title = "Fig 15: cache miss rates";
      heavy = false; jobs = Exp_missrate.jobs; render = Exp_missrate.run };
    { name = "fig16"; title = "Fig 16: NVM writes";
      heavy = false; jobs = Exp_nvmwrites.jobs; render = Exp_nvmwrites.run };
    { name = "hwcost"; title = "S6.9: hardware costs";
      heavy = false; jobs = Exp_hwcost.jobs; render = Exp_hwcost.run };
    { name = "ablation"; title = "Extensions: dual-buffer, Vmin, degradation, unroll";
      heavy = true; jobs = Exp_ablation.jobs; render = Exp_ablation.run };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let plan experiments =
  Jobs.dedup (List.concat_map (fun e -> e.jobs ()) experiments)

let keys experiments =
  List.map (fun j -> (j.Jobs.exp, Jobs.key j)) (plan experiments)

let render e =
  Results.set_current_experiment e.name;
  (* A render can hit a job that failed in the batch phase and recompute
     it sequentially, re-raising the original error; keep the remaining
     experiments alive and log it as a structured failure. *)
  try e.render ()
  with exn ->
    let backtrace = Printexc.get_backtrace () in
    let error = Printexc.to_string exn in
    Results.record_failure ~key:("render:" ^ e.name) ~error ~backtrace;
    Printf.eprintf "experiment %s failed: %s\n%!" e.name error

let run_many ?config experiments =
  Executor.execute ?config (plan experiments);
  List.iter render experiments

let run ?config e = run_many ?config [ e ]
