(* Allocation-regression gate for the decoded hot path.

   With no event sink installed, the cycle loop — Exec.step dispatch,
   mem-ops, accumulator charging, and the driver's totals bookkeeping —
   must not allocate on the minor heap at all.  We run each design at
   two workload scales and require the minor-allocation delta across
   Driver.run to stay below a small constant that does not grow with the
   instruction count (machine construction and the outcome record are
   allowed; per-instruction garbage is not).  Every design is measured
   under unlimited power and under RFHome at 10 µF: sha@0.02 and sha@0.1
   see no outage there, so the harvested run measures the
   per-instruction capacitor and trace arithmetic, not the crash paths. *)

module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Pipeline = Sweep_compiler.Pipeline
module Trace = Sweep_energy.Power_trace

(* Minor words allocated during one full Driver.run of [design] on
   sha@[scale], machine construction excluded.  Heartbeats stay armed:
   the amortised countdown (and the no-sink [fire] path, which only
   mutates the heartbeat's preallocated fields) must be alloc-free too,
   so telemetry-on sweeps keep the same throughput guarantee.  The
   per-PC attribution profiler is armed as well — its unconditional
   load-add-store accumulation (including the float counters and the
   epoch/stamp/delta re-execution bookkeeping) is part of the same
   zero-allocation contract. *)
let measure design ~power scale =
  let ast =
    Sweep_workloads.Workload.program ~scale
      (Sweep_workloads.Registry.find "sha")
  in
  let compiled = H.compile design ast in
  let m = H.machine design compiled.Pipeline.program in
  let heartbeat = Sweep_obs.Heartbeat.create ~every:50_000 () in
  let attrib =
    Sweep_obs.Attrib.create
      ~len:(Array.length compiled.Pipeline.program.Sweep_isa.Program.code)
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let outcome = Driver.run ~heartbeat ~attrib m ~power in
  let w1 = Gc.minor_words () in
  (w1 -. w0, outcome)

let check_power design (mode, power) =
  let name = Printf.sprintf "%s (%s)" (H.design_name design) mode in
  (* Warm-up run so one-time lazy initialisation is off the books. *)
  ignore (measure design ~power 0.02);
  let small_words, small = measure design ~power 0.02 in
  let big_words, big = measure design ~power 0.1 in
  let small_instrs = small.Driver.instructions
  and big_instrs = big.Driver.instructions in
  Alcotest.(check bool)
    (Printf.sprintf "%s: scales ran (%d -> %d instrs)" name small_instrs
       big_instrs)
    true
    (big_instrs > small_instrs && small_instrs > 0);
  Alcotest.(check int)
    (name ^ ": no outage") 0
    (small.Driver.outages + big.Driver.outages);
  let per_instr = (big_words -. small_words) /. float_of_int (big_instrs - small_instrs) in
  if per_instr > 1e-3 then
    Alcotest.failf
      "%s hot loop allocates: %.4f minor words/instr (%.0f words over %d \
       instrs vs %.0f over %d)"
      name per_instr big_words big_instrs small_words small_instrs

let check_design design () =
  List.iter (check_power design)
    [
      ("unlimited", Driver.Unlimited);
      ( "RFHome 10uF",
        Driver.harvested ~trace:(Trace.make Trace.Rf_home) ~farads:10e-6 () );
    ]

let suite =
  List.map
    (fun (short, design) ->
      Alcotest.test_case (short ^ " hot loop alloc-free") `Slow
        (check_design design))
    [
      ("nvp", H.Nvp); ("wt", H.Wt); ("nvsram", H.Nvsram);
      ("nvsram-e", H.Nvsram_e); ("replay", H.Replay); ("nvmr", H.Nvmr);
      ("sweep", H.Sweep);
    ]
