module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Trace = Sweep_energy.Power_trace
module Config = Sweep_machine.Config
module Pipeline = Sweep_compiler.Pipeline

type setting = {
  design : H.design;
  label : string;
  config : Config.t;
  options : Pipeline.options;
}

let setting ?label ?(config = Config.default)
    ?(options = Pipeline.default_options) design =
  let label = Option.value label ~default:(H.design_name design) in
  { design; label; config; options }

let sweep_nvm_search =
  setting ~label:"Sweep/NVMsearch"
    ~config:(Config.with_search Config.default Config.Nvm_search)
    H.Sweep

let sweep_empty_bit = setting ~label:"Sweep/EmptyBit" H.Sweep

let fig5_settings =
  [ setting H.Replay; setting H.Nvsram; sweep_nvm_search; sweep_empty_bit ]

(* Traces are memoised behind a mutex: a trace from [Trace.make] is
   complete and never changes once built, so sharing one instance
   across domains is safe; the lock only guards the table itself.  (A
   jittered trace, which is generated on demand, locks its own
   generation.)  The executor pre-materialises every trace a job list
   needs before spawning workers, so workers normally hit the table
   read-only. *)
let trace_lock = Mutex.create ()
let trace_cache : (Trace.kind, Trace.t) Hashtbl.t = Hashtbl.create 4

let trace_of kind =
  Mutex.lock trace_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock trace_lock)
    (fun () ->
      match Hashtbl.find_opt trace_cache kind with
      | Some t -> t
      | None ->
        let t = Trace.make kind in
        Hashtbl.replace trace_cache kind t;
        t)

let rf_office () = trace_of Trace.Rf_office
let rf_home () = trace_of Trace.Rf_home

let power ?(farads = 470e-9) trace = Driver.harvested ~trace ~farads ()

let all_names =
  List.map (fun w -> w.Sweep_workloads.Workload.name) Sweep_workloads.Registry.all

let subset_names =
  [
    "adpcmdec"; "gsmdec"; "jpegenc"; "sha"; "susans"; "dijkstra"; "fft";
    "typeset"; "blowfishenc"; "rijndaelenc";
  ]

let power_key = function
  | Driver.Unlimited -> "unlimited"
  | Driver.Harvested { trace; capacitor_farads; v_max; v_min } ->
    (* A transformed trace carries a tag (see Power_trace.with_tag);
       folding it into the kind segment keeps differently-jittered
       copies of one base trace from aliasing in the results store. *)
    let kind =
      match Trace.tag trace with
      | None -> Trace.kind_name (Trace.kind trace)
      | Some tag -> Trace.kind_name (Trace.kind trace) ^ "~" ^ tag
    in
    Printf.sprintf "%s/%g/%g/%g" kind capacitor_farads v_max v_min

let key_of ~label ~design ~power ~bench ~scale =
  Printf.sprintf "%s|%s|%s|%s|%g" label design power bench scale

let run_key ?(scale = 1.0) s ~power bench =
  key_of ~label:s.label ~design:(H.design_name s.design)
    ~power:(power_key power) ~bench ~scale

type summary = Results.summary = {
  outcome : Driver.outcome;
  mstats : Sweep_machine.Mstats.t;
  miss_rate : float;
  nvm_writes : int;
}

(* Profile filenames embed the canonical run key, sanitised for the
   filesystem ('|' and '/' become '_').  Keys are unique per job and
   the substitution is injective enough in practice (keys never
   contain '_'-ambiguous collisions within one matrix). *)
let sanitize_key key =
  String.map (fun c -> match c with '|' | '/' | ' ' -> '_' | c -> c) key

let compute ?(scale = 1.0) ?sim_budget_ns ?heartbeat ?attrib_dir s ~power
    bench =
  let w = Sweep_workloads.Registry.find bench in
  let ast = Sweep_workloads.Workload.program ~scale w in
  let r =
    H.run ~config:s.config ~options:s.options ?sim_budget_ns ?heartbeat
      ~attrib:(attrib_dir <> None) s.design ~power ast
  in
  if Sweep_obs.Metrics.enabled () then
    Sweep_machine.Mstats.publish
      ~labels:[ ("design", H.design_name s.design); ("bench", bench) ]
      (H.mstats r);
  (match attrib_dir with
  | None -> ()
  | Some dir ->
    (* One JSON + one collapsed-stack file per job, named by the
       sanitised canonical key.  The profile is a pure function of the
       job (no timestamps, PC-ordered rows), so any worker writing it
       produces identical bytes — safe at any -j. *)
    let key = run_key ~scale s ~power bench in
    (match Sweep_sim.Profile.of_result ~bench ~scale ~key r with
    | None -> ()
    | Some p ->
      let base = Filename.concat dir (sanitize_key key) in
      Sweep_sim.Profile.write_json p ~path:(base ^ ".attrib.json");
      Sweep_sim.Profile.write_folded p ~path:(base ^ ".folded")));
  {
    outcome = r.H.outcome;
    mstats = H.mstats r;
    miss_rate = H.cache_miss_rate r;
    nvm_writes = H.nvm_writes r;
  }

let run ?(scale = 1.0) s ~power bench =
  let key = run_key ~scale s ~power bench in
  match Results.find key with
  | Some r -> r
  | None ->
    let t0 = Unix.gettimeofday () in
    let summary = compute ~scale s ~power bench in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    let stored = Results.add ~key summary in
    if stored == summary then
      Results.emit
        ~exp:(Results.current_experiment ())
        ~key
        ~design:(H.design_name s.design)
        ~label:s.label ~power:(power_key power) ~bench ~scale ~elapsed_s
        summary;
    stored

let total r = Driver.total_ns r.outcome

let nvp_time ?scale ~power bench = total (run ?scale (setting H.Nvp) ~power bench)

let speedup ?scale s ~power bench =
  nvp_time ?scale ~power bench /. total (run ?scale s ~power bench)

let geomean = Sweep_util.Stats.geomean
