(* Tests for the capacitor, power traces and detector models. *)
module Capacitor = Sweep_energy.Capacitor
module Trace = Sweep_energy.Power_trace
module Detector = Sweep_energy.Detector
module E = Sweep_energy.Energy_config

let check = Alcotest.check

let cap () = Capacitor.create ~farads:470e-9 ~v_max:3.5 ~v_min:2.8

let test_cap_initial () =
  let c = cap () in
  check (Alcotest.float 1e-6) "starts at vmax" 3.5 (Capacitor.voltage c);
  check (Alcotest.float 1e-12) "energy is half CV^2"
    (0.5 *. 470e-9 *. 3.5 *. 3.5)
    (Capacitor.energy c)

let test_cap_consume_harvest () =
  let c = cap () in
  let e0 = Capacitor.energy c in
  Capacitor.consume c 1e-7;
  check (Alcotest.float 1e-15) "consumed" (e0 -. 1e-7) (Capacitor.energy c);
  Capacitor.harvest c ~power_w:1e-3 ~dt_s:1e-4;
  check (Alcotest.float 1e-12) "harvest clamps at vmax" e0 (Capacitor.energy c)

let test_cap_floor () =
  let c = cap () in
  Capacitor.consume c 1.0;
  check (Alcotest.float 0.0) "floored at zero" 0.0 (Capacitor.energy c)

let test_cap_thresholds () =
  let c = cap () in
  Alcotest.(check bool) "above 3.4 initially" true (Capacitor.above c 3.4);
  Capacitor.set_voltage c 3.0;
  Alcotest.(check bool) "not above 3.2" false (Capacitor.above c 3.2);
  Alcotest.(check bool) "above 2.9" true (Capacitor.above c 2.9);
  check (Alcotest.float 1e-12) "usable above 2.8"
    (Capacitor.energy_at c 3.0 -. Capacitor.energy_at c 2.8)
    (Capacitor.usable_above c 2.8);
  check (Alcotest.float 0.0) "usable above current" 0.0
    (Capacitor.usable_above c 3.2)

let test_cap_voltage_roundtrip () =
  let c = cap () in
  Capacitor.set_voltage c 3.123;
  check (Alcotest.float 1e-9) "roundtrip" 3.123 (Capacitor.voltage c)

let test_cap_invalid () =
  Alcotest.(check bool) "bad args raise" true
    (match Capacitor.create ~farads:0.0 ~v_max:3.5 ~v_min:2.8 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_trace_deterministic () =
  let a = Trace.make ~seed:9 Trace.Rf_home in
  let b = Trace.make ~seed:9 Trace.Rf_home in
  Alcotest.(check bool) "same seed same trace" true
    (List.for_all
       (fun t -> Trace.power a t = Trace.power b t)
       [ 0.0; 0.001; 0.5; 1.7; 42.0 ])

let test_trace_mean_power () =
  List.iter
    (fun kind ->
      let t = Trace.make kind in
      let mean = Trace.mean_power t in
      Alcotest.(check bool)
        (Trace.kind_name kind ^ " mean in ambient range")
        true
        (mean > 50e-6 && mean < 800e-6))
    Trace.all_kinds

let test_trace_burstiness_ordering () =
  let duty k = Trace.duty_cycle (Trace.make k) in
  Alcotest.(check bool) "RF bursty" true (duty Trace.Rf_office < 0.8);
  Alcotest.(check bool) "solar steady" true (duty Trace.Solar > 0.95);
  Alcotest.(check bool) "thermal steady" true (duty Trace.Thermal > 0.95)

let test_trace_wraps () =
  let t = Trace.make Trace.Thermal in
  check (Alcotest.float 1e-12) "wraps around" (Trace.power t 0.0)
    (Trace.power t 60.0)

let test_detector_kinds () =
  let jit = Detector.jit ~v_backup:2.9 ~v_restore:3.2 in
  let sweep = Detector.sweep ~v_restore:3.3 in
  Alcotest.(check bool) "jit has backup threshold" true
    (jit.Detector.v_backup = Some 2.9);
  Alcotest.(check bool) "sweep has none" true (sweep.Detector.v_backup = None);
  Alcotest.(check bool) "sweep draws less" true
    (Detector.quiescent_power_w sweep < Detector.quiescent_power_w jit);
  Alcotest.(check bool) "sweep restores faster" true
    (sweep.Detector.t_plh_ns < jit.Detector.t_plh_ns)

let test_detector_overrides () =
  let d = Detector.jit ~v_backup:2.9 ~v_restore:3.2 in
  let d' = Detector.with_delays d ~t_phl_ns:1.0 ~t_plh_ns:2.0 in
  check (Alcotest.float 0.0) "t_phl" 1.0 d'.Detector.t_phl_ns;
  let d'' = Detector.with_thresholds d ~v_backup:3.0 ~v_restore:3.3 () in
  Alcotest.(check bool) "backup bumped" true (d''.Detector.v_backup = Some 3.0);
  let d3 = Detector.with_thresholds d ~v_restore:3.25 () in
  Alcotest.(check bool) "backup kept" true (d3.Detector.v_backup = Some 2.9)

let test_energy_config_cycles () =
  let e = E.default in
  check (Alcotest.float 1e-12) "1ns cycle at 1GHz" 1.0 (E.cycle_ns e);
  check Alcotest.int "nvm read cycles" 20 (E.nvm_read_cycles e);
  check Alcotest.int "nvm write cycles" 120 (E.nvm_write_cycles e)

let test_energy_config_orderings () =
  let e = E.default in
  Alcotest.(check bool) "dma < clwb < line write latency story" true
    (e.E.dma_line_ns < e.E.clwb_drain_ns
    && e.E.clwb_drain_ns < e.E.nvm_write_ns);
  Alcotest.(check bool) "cache cheaper than NVM" true
    (e.E.e_cache_access < e.E.e_nvm_read)

let suite =
  [
    Alcotest.test_case "capacitor initial" `Quick test_cap_initial;
    Alcotest.test_case "capacitor consume/harvest" `Quick test_cap_consume_harvest;
    Alcotest.test_case "capacitor floor" `Quick test_cap_floor;
    Alcotest.test_case "capacitor thresholds" `Quick test_cap_thresholds;
    Alcotest.test_case "capacitor roundtrip" `Quick test_cap_voltage_roundtrip;
    Alcotest.test_case "capacitor invalid" `Quick test_cap_invalid;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "trace mean power" `Quick test_trace_mean_power;
    Alcotest.test_case "trace burstiness" `Quick test_trace_burstiness_ordering;
    Alcotest.test_case "trace wraps" `Quick test_trace_wraps;
    Alcotest.test_case "detector kinds" `Quick test_detector_kinds;
    Alcotest.test_case "detector overrides" `Quick test_detector_overrides;
    Alcotest.test_case "energy cycles" `Quick test_energy_config_cycles;
    Alcotest.test_case "energy orderings" `Quick test_energy_config_orderings;
  ]

let test_eh_model () =
  let module Eh = Sweep_energy.Eh_model in
  let cap64 = Eh.region_instr_cap ~store_threshold:64 () in
  Alcotest.(check bool) "cap in a sane band" true (cap64 >= 500 && cap64 <= 20000);
  let cap128 = Eh.region_instr_cap ~store_threshold:128 () in
  Alcotest.(check bool) "bigger store reserve, smaller cap" true (cap128 < cap64);
  let tiny = Eh.region_instr_cap ~farads:10e-9 ~store_threshold:64 () in
  check Alcotest.int "floor at 64" 64 tiny;
  let big = Eh.region_instr_cap ~farads:10e-6 ~store_threshold:64 () in
  Alcotest.(check bool) "bigger capacitor, bigger cap" true (big > cap64);
  Alcotest.(check bool) "worst store dwarfs a hit" true
    (Eh.worst_case_store_joules E.default
    > 10.0 *. Eh.hit_instruction_joules E.default)

let suite = suite @ [ Alcotest.test_case "eh model" `Quick test_eh_model ]

let test_trace_csv_roundtrip () =
  let t = Trace.make ~seed:5 Trace.Rf_home in
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save_csv t path;
      let t' = Trace.load_csv ~kind:Trace.Rf_home path in
      check (Alcotest.float 1e-6) "mean preserved" (Trace.mean_power t)
        (Trace.mean_power t');
      List.iter
        (fun time ->
          check (Alcotest.float 1e-9) "samples preserved" (Trace.power t time)
            (Trace.power t' time))
        [ 0.0; 0.0123; 1.5; 12.25 ])

let test_trace_csv_rejects_garbage () =
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not,a,trace\n";
      close_out oc;
      Alcotest.(check bool) "malformed raises" true
        (match Trace.load_csv path with
        | _ -> false
        | exception Failure _ -> true))

(* Charge/discharge boundary behaviour: the threshold crossings that
   drive backup/death/reboot decisions must be exact at the rails. *)
let test_cap_discharge_boundary () =
  let c = cap () in
  let usable = Capacitor.usable_above c 2.8 in
  Capacitor.consume c usable;
  check (Alcotest.float 1e-9) "discharge lands exactly on vmin" 2.8
    (Capacitor.voltage c);
  Alcotest.(check bool) "at vmin still counts as above" true
    (Capacitor.above c 2.8);
  check (Alcotest.float 0.0) "nothing usable at the boundary" 0.0
    (Capacitor.usable_above c 2.8);
  Capacitor.consume c 1e-9;
  Alcotest.(check bool) "one more joule-fraction crosses it" false
    (Capacitor.above c 2.8)

let test_cap_charge_boundary () =
  let c = cap () in
  Capacitor.set_voltage c 0.0;
  check (Alcotest.float 0.0) "empty at 0 V" 0.0 (Capacitor.energy c);
  (* charging is monotone... *)
  let prev = ref 0.0 in
  for _ = 1 to 100 do
    Capacitor.harvest c ~power_w:1e-4 ~dt_s:1e-3;
    Alcotest.(check bool) "voltage non-decreasing while charging" true
      (Capacitor.voltage c >= !prev);
    prev := Capacitor.voltage c
  done;
  (* ...and saturates exactly at vmax, however much is harvested *)
  Capacitor.harvest c ~power_w:1.0 ~dt_s:1.0;
  check (Alcotest.float 1e-9) "saturates at vmax" 3.5 (Capacitor.voltage c);
  check (Alcotest.float 1e-15) "energy clamped to the vmax energy"
    (Capacitor.energy_at c 3.5) (Capacitor.energy c);
  Capacitor.harvest c ~power_w:1.0 ~dt_s:1.0;
  check (Alcotest.float 1e-15) "further harvest is a no-op"
    (Capacitor.energy_at c 3.5) (Capacitor.energy c)

let test_detector_hysteresis () =
  let d = Detector.jit ~v_backup:2.9 ~v_restore:3.2 in
  Alcotest.(check bool) "restore sits above backup" true
    (d.Detector.v_restore > Option.get d.Detector.v_backup);
  (* Inside the band the capacitor trips backup but not restore: a dead
     system stays off until the restore threshold, not merely v_backup —
     the hysteresis that prevents reboot/death oscillation. *)
  let c = cap () in
  Capacitor.set_voltage c 3.0;
  Alcotest.(check bool) "band voltage is above backup" true
    (Capacitor.above c (Option.get d.Detector.v_backup));
  Alcotest.(check bool) "band voltage is below restore" false
    (Capacitor.above c d.Detector.v_restore);
  (* SweepCache's single-threshold comparator keeps its band against the
     capacitor's death floor instead. *)
  let s = Detector.sweep ~v_restore:3.3 in
  Alcotest.(check bool) "sweep restore above the death floor" true
    (s.Detector.v_restore > Capacitor.v_min c);
  let d' = Detector.with_thresholds d ~v_backup:3.0 ~v_restore:3.3 () in
  Alcotest.(check bool) "threshold override keeps the band" true
    (d'.Detector.v_restore > Option.get d'.Detector.v_backup)

let test_trace_csv_rejects_negative_time () =
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "time_s,power_w\n-0.1,0.001\n0.2,0.001\n";
      close_out oc;
      Alcotest.(check bool) "negative timestamp raises" true
        (match Trace.load_csv path with
        | _ -> false
        | exception Failure m ->
          Alcotest.(check bool) "message names the problem" true
            (String.length m > 0
            && String.sub m 0 (String.length "Power_trace") = "Power_trace");
          true))

let test_trace_csv_rejects_nonmonotonic_time () =
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "time_s,power_w\n0.0,0.001\n0.5,0.002\n0.5,0.001\n";
      close_out oc;
      Alcotest.(check bool) "repeated timestamp raises" true
        (match Trace.load_csv path with
        | _ -> false
        | exception Failure _ -> true))

let suite =
  suite
  @ [
      Alcotest.test_case "trace csv roundtrip" `Quick test_trace_csv_roundtrip;
      Alcotest.test_case "trace csv garbage" `Quick test_trace_csv_rejects_garbage;
      Alcotest.test_case "capacitor discharge boundary" `Quick
        test_cap_discharge_boundary;
      Alcotest.test_case "capacitor charge boundary" `Quick
        test_cap_charge_boundary;
      Alcotest.test_case "detector hysteresis" `Quick test_detector_hysteresis;
      Alcotest.test_case "trace csv negative time" `Quick
        test_trace_csv_rejects_negative_time;
      Alcotest.test_case "trace csv non-monotonic time" `Quick
        test_trace_csv_rejects_nonmonotonic_time;
    ]

(* ---------------- trace jitter (fleet) ---------------- *)

let raises_failure f =
  match f () with _ -> false | exception Failure _ -> true

let jitter ?(shift_s = 0.0) ?(factor = 1.0) ?(drop_seed = 11)
    ?(drop_frac = 0.0) t =
  Trace.jitter t ~shift_s ~factor ~drop_seed ~drop_frac

(* Every sample of a (possibly lazy) trace. *)
let read_all t =
  let s = Trace.samples t in
  Trace.ensure t (Array.length s - 1);
  s

let test_jitter_shift () =
  let t = Trace.make ~seed:3 Trace.Rf_office in
  let s = Trace.samples t in
  let before = Array.copy s in
  let n = Array.length s in
  let dt = Trace.sample_dt t in
  let s' = read_all (jitter ~shift_s:(7.0 *. dt) t) in
  Alcotest.(check bool) "rotated right by 7 steps" true
    (Array.for_all Fun.id
       (Array.init n (fun i -> s'.(i) = s.((i - 7 + n) mod n))));
  Alcotest.(check bool) "zero shift is identity" true (read_all (jitter t) = s);
  Alcotest.(check bool) "input not mutated" true
    (Trace.samples t == s && s = before);
  Alcotest.(check bool) "negative shift rejected" true
    (raises_failure (fun () -> jitter ~shift_s:(-.dt) t));
  Alcotest.(check bool) "nan shift rejected" true
    (raises_failure (fun () -> jitter ~shift_s:Float.nan t));
  Alcotest.(check bool) "infinite shift rejected" true
    (raises_failure (fun () -> jitter ~shift_s:Float.infinity t))

let test_jitter_scale () =
  let t = Trace.make ~seed:3 Trace.Solar in
  let m = Trace.mean_power t in
  check (Alcotest.float 1e-12) "mean scales linearly" (m *. 1.25)
    (Trace.mean_power (jitter ~factor:1.25 t));
  check (Alcotest.float 0.0) "zero factor flattens" 0.0
    (Trace.mean_power (jitter ~factor:0.0 t));
  Alcotest.(check bool) "negative factor rejected" true
    (raises_failure (fun () -> jitter ~factor:(-0.1) t));
  Alcotest.(check bool) "nan factor rejected" true
    (raises_failure (fun () -> jitter ~factor:Float.nan t))

let test_jitter_drop () =
  let t = Trace.make ~seed:3 Trace.Rf_home in
  let s = Trace.samples t in
  let drop drop_seed drop_frac = read_all (jitter ~drop_seed ~drop_frac t) in
  let a = drop 11 0.3 and b = drop 11 0.3 and c = drop 12 0.3 in
  Alcotest.(check bool) "same seed same drops" true (a = b);
  Alcotest.(check bool) "different seed different drops" true (a <> c);
  Alcotest.(check bool) "drops only zero, never alter" true
    (Array.for_all Fun.id
       (Array.init (Array.length s) (fun i -> a.(i) = 0.0 || a.(i) = s.(i))));
  Alcotest.(check bool) "frac 0 is identity" true (drop 11 0.0 = s);
  Alcotest.(check bool) "frac 1 zeroes everything" true
    (Array.for_all (fun p -> p = 0.0) (drop 11 1.0));
  Alcotest.(check bool) "frac below 0 rejected" true
    (raises_failure (fun () -> jitter ~drop_frac:(-0.01) t));
  Alcotest.(check bool) "frac above 1 rejected" true
    (raises_failure (fun () -> jitter ~drop_frac:1.01 t));
  Alcotest.(check bool) "nan frac rejected" true
    (raises_failure (fun () -> jitter ~drop_frac:Float.nan t))

let test_transform_tags () =
  let t = Trace.make ~seed:3 Trace.Thermal in
  Alcotest.(check bool) "fresh trace untagged" true (Trace.tag t = None);
  let tagged = Trace.with_tag (jitter ~factor:0.9 t) "am900" in
  Alcotest.(check bool) "tag recorded" true (Trace.tag tagged = Some "am900")

(* The eager three-pass jitter the lazy generator replaced — rotate,
   then scale, then drop, each over the whole grid — kept as the
   reference it must match bit for bit, with the parameters converted
   as [Jobs.apply_jitter] converts them. *)
let reference_jitter t ~shift_steps ~amp_permille ~drop_bp ~drop_seed =
  let s = Trace.samples t in
  let n = Array.length s in
  let dt = Trace.sample_dt t in
  let shift_s = float_of_int shift_steps *. dt in
  let steps = int_of_float ((shift_s /. dt) +. 0.5) mod n in
  let rotated =
    if steps = 0 then Array.copy s
    else Array.init n (fun i -> s.((i - steps + n) mod n))
  in
  let factor = float_of_int amp_permille /. 1000.0 in
  let scaled = Array.map (fun p -> p *. factor) rotated in
  let frac = float_of_int drop_bp /. 10_000.0 in
  if frac = 0.0 then Array.copy scaled
  else
    let rng = Sweep_util.Rng.create drop_seed in
    Array.map
      (fun p -> if Sweep_util.Rng.float rng 1.0 < frac then 0.0 else p)
      scaled

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Every sample of every device-parameter corner, compared through
   [Trace.power] with the reference.  Reads start past the 60 s wrap at
   growing indices (0, 5000, 12345), go on in shuffled order, and end on
   the last sample via a wrapped time, so generation is driven out of
   order; they alternate between the trace and a tagged copy, which
   must share one generator. *)
let test_jitter_bit_exact () =
  let base = Sweep_exp.Exp_common.trace_of Trace.Rf_office in
  let n = Array.length (Trace.samples base) in
  let dt = Trace.sample_dt base in
  let order = Array.init n Fun.id in
  Sweep_util.Rng.shuffle (Sweep_util.Rng.create 17) order;
  let times =
    Array.concat
      [
        [| 60.0; 600.5; 61.23456 |];
        Array.map (fun i -> (float_of_int i +. 0.5) *. dt) order;
        [| 119.99995 |];
      ]
  in
  List.iter
    (fun shift_steps ->
      List.iter
        (fun amp_permille ->
          List.iter
            (fun drop_bp ->
              let expect =
                reference_jitter base ~shift_steps ~amp_permille ~drop_bp
                  ~drop_seed:5
              in
              let t =
                Sweep_exp.Jobs.apply_jitter base ~shift_steps ~amp_permille
                  ~drop_bp ~drop_seed:5
              in
              let copy = Trace.with_tag t "copy" in
              Array.iteri
                (fun k time ->
                  let p = Trace.power (if k land 1 = 0 then t else copy) time in
                  let i = int_of_float (time /. dt) mod n in
                  if not (same_bits p expect.(i)) then
                    Alcotest.failf "shift %d amp %d drop %d: sample %d differs"
                      shift_steps amp_permille drop_bp i)
                times)
            [ 0; 300; 10_000 ])
        [ 0; 800; 1000; 1200 ])
    [ 0; 1; 7; 599_999; 600_000 ]

(* One fresh jittered trace read by two domains at once, in index order
   like the driver (so they race to extend it), over its whole 60 s and
   a wrap: each domain must read what a sequential read of a second
   copy reads. *)
let test_jitter_shared_across_domains () =
  let base = Sweep_exp.Exp_common.trace_of Trace.Rf_office in
  let make () =
    Sweep_exp.Jobs.apply_jitter base ~shift_steps:123_457 ~amp_permille:900
      ~drop_bp:300 ~drop_seed:5
  in
  let n = Array.length (Trace.samples base) in
  let reads = n + (n / 4) in
  let read t =
    let s = Trace.samples t in
    Array.init reads (fun idx ->
        let k = idx mod n in
        Trace.ensure t k;
        s.(k))
  in
  let expect = read (make ()) in
  let shared = make () in
  let domains = List.init 2 (fun _ -> Domain.spawn (fun () -> read shared)) in
  List.iteri
    (fun d dom ->
      let got = Domain.join dom in
      Array.iteri
        (fun i p ->
          if not (same_bits p expect.(i)) then
            Alcotest.failf "domain %d: read %d differs" d i)
        got)
    domains

let suite =
  suite
  @ [
      Alcotest.test_case "jitter shift" `Quick test_jitter_shift;
      Alcotest.test_case "jitter scale" `Quick test_jitter_scale;
      Alcotest.test_case "jitter drop" `Quick test_jitter_drop;
      Alcotest.test_case "transform tags" `Quick test_transform_tags;
      Alcotest.test_case "jitter bit-exact vs eager" `Quick
        test_jitter_bit_exact;
      Alcotest.test_case "jitter shared across domains" `Quick
        test_jitter_shared_across_domains;
    ]
