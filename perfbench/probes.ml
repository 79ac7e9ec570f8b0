(* Isolated layer probes: each times one public function on pinned
   inputs drawn from the workloads and reports the median of N calls.
   Machines are always built outside the clock of a step-loop probe. *)

module W = Workloads
module Jobs = Sweep_exp.Jobs
module Exp_common = Sweep_exp.Exp_common
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module Supervisor = Sweep_exp.Supervisor
module Rcache = Sweep_exp.Rcache
module Wire = Sweep_exp.Wire
module Search = Sweep_tune.Search
module Space = Sweep_tune.Space
module Trace = Sweep_energy.Power_trace
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Pipeline = Sweep_compiler.Pipeline

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (Spans.now () -. t0, r)

let median_time n f = Stats.median (List.init n (fun _ -> fst (timed f)))

let program ~bench ~scale =
  (H.compile H.Sweep
     (Sweep_workloads.Workload.program ~scale
        (Sweep_workloads.Registry.find bench)))
    .Pipeline.program

(* One Driver.run on a fresh Sweep machine; seconds and outcome.  The
   previous run's machine is collected before the clock starts. *)
let run_once ?heartbeat ?attrib prog ~power =
  let m = H.machine H.Sweep prog in
  Gc.full_major ();
  timed (fun () -> Driver.run ?heartbeat ?attrib m ~power)

let step_minstr_per_s n prog ~power =
  Stats.median
    (List.init n (fun _ ->
         let dt, o = run_once prog ~power in
         float_of_int o.Driver.instructions /. dt /. 1e6))

(* The same pinned run with nothing armed and with each of heartbeat,
   attribution and an event sink armed, interleaved round by round;
   each overhead is the armed median over the bare one, in percent. *)
let obs_overheads n prog ~power =
  let len = Array.length prog.Sweep_isa.Program.code in
  let arms =
    [|
      (fun () -> fst (run_once prog ~power));
      (fun () ->
        let heartbeat =
          Sweep_obs.Heartbeat.create ~every:Sweep_obs.Heartbeat.default_every ()
        in
        fst (run_once ~heartbeat prog ~power));
      (fun () ->
        fst (run_once ~attrib:(Sweep_obs.Attrib.create ~len) prog ~power));
      (fun () ->
        let sink, _ = Sweep_obs.Sink.counting () in
        Sweep_obs.Sink.with_sink sink (fun () -> fst (run_once prog ~power)));
    |]
  in
  let samples = Array.make (Array.length arms) [] in
  for _ = 1 to n do
    Array.iteri (fun i arm -> samples.(i) <- arm () :: samples.(i)) arms
  done;
  let bare = Stats.median samples.(0) in
  let pct i = ((Stats.median samples.(i) /. bare) -. 1.0) *. 100.0 in
  (pct 1, pct 2, pct 3)

(* One Job frame and one Done frame, each encoded and decoded. *)
let wire_roundtrip_us n ~job ~summary =
  let key = Jobs.key job in
  let once () =
    let job_line =
      Wire.line_of_to_worker (Wire.Job { key; spec = job; sim_budget_ns = None })
    in
    let done_line =
      Wire.line_of_from_worker (Wire.Done { key; elapsed_s = 0.5; summary })
    in
    match (Wire.to_worker_of_line job_line, Wire.from_worker_of_line done_line) with
    | Some _, Some _ -> ()
    | _ -> failwith "wire probe: frame did not decode"
  in
  let batch = 20 in
  median_time n (fun () ->
      for _ = 1 to batch do
        once ()
      done)
  /. float_of_int batch *. 1e6

(* Per-job cost of the supervised path: the same tune cells on one
   worker process versus in-process, both at one simulating thread. *)
let supervisor_job_overhead_ms rounds jobs =
  let in_process () =
    Results.clear ();
    fst (timed (fun () -> Executor.execute ~workers:1 jobs))
  in
  let supervised () =
    Results.clear ();
    let config =
      Executor.config ~distribute:(Supervisor.policy ~workers:1 ()) ()
    in
    fst
      (timed (fun () ->
           Executor.execute ~workers:1 ~config jobs;
           Supervisor.shutdown ()))
  in
  let inp = ref [] and sup = ref [] in
  for r = 1 to rounds do
    (* alternate which side goes first *)
    if r mod 2 = 1 then begin
      inp := in_process () :: !inp;
      sup := supervised () :: !sup
    end
    else begin
      sup := supervised () :: !sup;
      inp := in_process () :: !inp
    end
  done;
  Results.clear ();
  (Stats.median !sup -. Stats.median !inp)
  /. float_of_int (List.length jobs) *. 1000.0

let domain_speedup_j2 jobs =
  let at w =
    Results.clear ();
    fst (timed (fun () -> Executor.execute ~workers:w jobs))
  in
  let t1 = at 1 in
  let t2 = at 2 in
  Results.clear ();
  t1 /. t2

(* The fleet layer on the default-seed spec's devices: deriving one,
   folding one outcome (the same real one for every device), and
   rendering the folded sketch; µs, µs and ms. *)
let fleet_layer n ~outcome =
  let spec = W.fleet_spec W.Full ~seed:42 in
  let ids = List.init spec.Sweep_fleet.Spec.devices Fun.id in
  let per_device t = t /. float_of_int (List.length ids) *. 1e6 in
  let instantiate () =
    List.map (fun id -> Sweep_fleet.Device.instantiate spec ~id) ids
  in
  let devices = instantiate () in
  let fold () =
    let state = Sweep_fleet.Sketch.create () in
    List.iter
      (fun (d : Sweep_fleet.Device.t) ->
        Sweep_fleet.Sketch.fold_device state ~id:d.id ~arm:d.arm.arm_name
          ~replay:(Sweep_fleet.Device.replay_args spec d) outcome)
      devices;
    state
  in
  let state = fold () in
  ( per_device (median_time n instantiate),
    per_device (median_time n fold),
    median_time n (fun () -> Sweep_fleet.Sketch.render state) *. 1e3 )

(* Store, hit and miss latencies of the persistent result cache, in
   ms, µs and µs. *)
let rcache n ~dir ~summary =
  let rc = Rcache.create dir in
  let digest = Rcache.config_digest Exp_common.sweep_empty_bit in
  let keys = List.init n (Printf.sprintf "perfbench-probe-%d") in
  let each f =
    Stats.median (List.map (fun key -> fst (timed (fun () -> f key))) keys)
  in
  let store =
    each (fun key -> Rcache.store rc ~key ~digest ~elapsed_s:0.5 summary)
  in
  let find ~hit key =
    let key = if hit then key else key ^ "-absent" in
    match (Rcache.find rc ~key ~digest, hit) with
    | Some _, true | None, false -> ()
    | _ -> failwith "rcache probe: unexpected lookup result"
  in
  let hit = each (find ~hit:true) in
  let miss = each (find ~hit:false) in
  W.rm_rf dir;
  (store *. 1e3, hit *. 1e6, miss *. 1e6)

(* Search.run resumed from a complete journal: no cell simulates. *)
let tune_resume_s n ~dir params =
  W.mkdir_p dir;
  let journal = Filename.concat dir "journal.jsonl" in
  let search () = ignore (W.ok_or_fail (Search.run ~workers:1 ~journal params)) in
  search ();
  let s = median_time n search in
  Results.clear ();
  W.rm_rf dir;
  s

type sizes = {
  n : int;             (* calls per cheap probe *)
  n_sim : int;         (* runs per step-loop probe *)
  n_obs : int;         (* rounds of the telemetry-overhead probe *)
  scale : float;       (* of the pinned step-loop benches *)
  cells : int;         (* tune cells in the supervisor probe *)
  domain_jobs : int;   (* fig12 jobs in the -j probe *)
  resume_budget : int;
}

let sizes = function
  | W.Full ->
    { n = 5; n_sim = 3; n_obs = 7; scale = 1.0; cells = 16; domain_jobs = 10;
      resume_budget = 24 }
  | W.Smoke ->
    { n = 1; n_sim = 1; n_obs = 1; scale = 0.05; cells = 2; domain_jobs = 2;
      resume_budget = 4 }

let take k xs = List.filteri (fun i _ -> i < k) xs

(* Every probe, named as in BENCHMARK.json.  [dir] is scratch space the
   probes remove again. *)
let run size ~dir =
  let z = sizes size in
  let office = Exp_common.trace_of Trace.Rf_office in
  let home = Exp_common.power (Exp_common.trace_of Trace.Rf_home) in
  let sha = program ~bench:"sha" ~scale:0.3 in
  let dev = Sweep_fleet.Device.instantiate (W.fleet_spec W.Full ~seed:42) ~id:0 in
  let tune = W.tune_params W.Full ~seed:42 in
  let job =
    Jobs.job ~exp:"fig5" ~scale:0.3 Exp_common.sweep_empty_bit
      ~power:Jobs.unlimited "sha"
  in
  let summary =
    Exp_common.compute ~scale:0.3 job.Jobs.setting ~power:Driver.Unlimited "sha"
  in
  let nvm_create_ms =
    median_time z.n (fun () -> Sys.opaque_identity (Sweep_mem.Nvm.create ()))
    *. 1e3
  in
  let decode_ms =
    median_time (4 * z.n) (fun () -> Sweep_isa.Decoded.compile sha) *. 1e3
  in
  let trace_make_ms =
    median_time z.n (fun () -> Trace.make Trace.Rf_office) *. 1e3
  in
  let jitter_ms =
    median_time z.n (fun () ->
        Jobs.apply_jitter office ~shift_steps:dev.Sweep_fleet.Device.shift_steps
          ~amp_permille:dev.amp_permille ~drop_bp:dev.drop_bp
          ~drop_seed:dev.drop_seed)
    *. 1e3
  in
  let instantiate_us, fold_us, render_ms =
    fleet_layer z.n ~outcome:summary.Exp_common.outcome
  in
  let unlimited =
    step_minstr_per_s z.n_sim (program ~bench:"susanc" ~scale:z.scale)
      ~power:Driver.Unlimited
  in
  let dijkstra = program ~bench:"dijkstra" ~scale:z.scale in
  let harvested = step_minstr_per_s z.n_sim dijkstra ~power:home in
  let hb, attrib, sink =
    obs_overheads z.n_obs (program ~bench:"susans" ~scale:z.scale) ~power:home
  in
  let wire = wire_roundtrip_us z.n ~job ~summary in
  let cells =
    List.map
      (fun p -> Space.job ~scale:tune.Search.scale p "sha")
      (take z.cells (Space.points tune.Search.space))
  in
  let supervisor = supervisor_job_overhead_ms 2 cells in
  let fig12 =
    Jobs.matrix ~exp:"fig12" ~scale:z.scale [ Exp_common.sweep_empty_bit ]
      (take z.domain_jobs Exp_common.subset_names)
  in
  let speedup = domain_speedup_j2 fig12 in
  let store, hit, miss =
    rcache (4 * z.n) ~dir:(Filename.concat dir "rcache") ~summary
  in
  (* The smallest scale: only the resume is timed, not the search. *)
  let resume =
    tune_resume_s z.n ~dir:(Filename.concat dir "tune-resume")
      { tune with budget = z.resume_budget; scale = 0.05 }
  in
  [
    ("mem.nvm_create_ms", nvm_create_ms);
    ("isa.decode_ms", decode_ms);
    ("energy.trace_make_ms", trace_make_ms);
    ("energy.jitter_ms", jitter_ms);
    ("fleet.instantiate_us", instantiate_us);
    ("fleet.fold_us", fold_us);
    ("fleet.render_ms", render_ms);
    ("sim.step_minstr_per_s_unlimited", unlimited);
    ("sim.step_minstr_per_s_harvested", harvested);
    ("obs.heartbeat_overhead_pct", hb);
    ("obs.attrib_overhead_pct", attrib);
    ("obs.sink_overhead_pct", sink);
    ("exp.wire_roundtrip_us", wire);
    ("exp.supervisor_job_overhead_ms", supervisor);
    ("exp.domain_speedup_j2", speedup);
    ("exp.rcache_store_ms", store);
    ("exp.rcache_hit_us", hit);
    ("exp.rcache_miss_us", miss);
    ("tune.resume_s", resume);
  ]
