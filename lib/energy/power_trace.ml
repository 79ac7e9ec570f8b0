type kind = Rf_home | Rf_office | Solar | Thermal

let kind_name = function
  | Rf_home -> "RFHome"
  | Rf_office -> "RFOffice"
  | Solar -> "solar"
  | Thermal -> "thermal"

let all_kinds = [ Rf_home; Rf_office; Solar; Thermal ]

(* A jittered trace's generator.  Everything generation mutates (the
   drop RNG, the published length) lives here, behind the one [gen]
   that every copy of the trace record shares, so [with_tag]'s
   [{ t with ... }] can never fork a counter from its buffer. *)
type gen = {
  base : float array; (* complete source samples *)
  steps : int; (* right rotation, in samples *)
  factor : float;
  drop_frac : float;
  rng : Sweep_util.Rng.t; (* the drop stream: one draw per sample, in order *)
  lock : Mutex.t; (* serialises generation *)
  ready : int Atomic.t;
      (* samples [0, ready) are generated; set only after the samples
         it covers are written *)
}

type t = {
  kind : kind;
  dt_s : float;
  samples : float array; (* watts *)
  gen : gen option; (* [None]: complete when built *)
  tag : string option; (* transform provenance, part of the power key *)
}

let dt_s = 1.0e-4 (* 100 us *)
let duration_s = 60.0
let sample_count = int_of_float (duration_s /. dt_s)

(* Two-state (on/off) semi-Markov RF source: exponential dwell times, and
   log-normal-ish power during on-periods.  Home and office differ in
   duty cycle and burst length, office being slightly choppier. *)
let gen_rf rng ~p_on_w ~mean_on_s ~mean_off_s samples =
  let i = ref 0 in
  let on = ref true in
  while !i < Array.length samples do
    let dwell =
      Sweep_util.Rng.exponential rng (if !on then mean_on_s else mean_off_s)
    in
    let steps = max 1 (int_of_float (dwell /. dt_s)) in
    let level =
      if !on then p_on_w *. (0.6 +. (0.8 *. Sweep_util.Rng.float rng 1.0))
      else 0.0
    in
    let stop = min (Array.length samples) (!i + steps) in
    for j = !i to stop - 1 do
      samples.(j) <- level
    done;
    i := stop;
    on := not !on
  done

let gen_solar rng samples =
  (* Slow irradiance drift (clouds) on a stable base. *)
  let base = 300.0e-6 in
  let drift = ref 1.0 in
  Array.iteri
    (fun j _ ->
      if j mod 2000 = 0 then begin
        let step = 0.15 *. Sweep_util.Rng.gaussian rng in
        drift := Sweep_util.Stats.clamp ~lo:0.5 ~hi:1.4 (!drift +. step)
      end;
      samples.(j) <- base *. !drift)
    samples

let gen_thermal rng samples =
  let base = 280.0e-6 in
  Array.iteri
    (fun j _ ->
      let noise = 1.0 +. (0.03 *. Sweep_util.Rng.gaussian rng) in
      samples.(j) <- Float.max 0.0 (base *. noise))
    samples

let make ?(seed = 42) kind =
  let rng = Sweep_util.Rng.create (seed + Hashtbl.hash (kind_name kind)) in
  let samples = Array.make sample_count 0.0 in
  (match kind with
  | Rf_home ->
    gen_rf rng ~p_on_w:700.0e-6 ~mean_on_s:0.0020 ~mean_off_s:0.0026 samples
  | Rf_office ->
    gen_rf rng ~p_on_w:650.0e-6 ~mean_on_s:0.0015 ~mean_off_s:0.0020 samples
  | Solar -> gen_solar rng samples
  | Thermal -> gen_thermal rng samples);
  { kind; dt_s; samples; gen = None; tag = None }

let kind t = t.kind

(* Jittered samples are generated a chunk at a time: a device reads
   well under a second of its 60 s trace, so generating on demand
   skips nearly all of it, while chunking keeps the lock off the
   per-sample path. *)
let chunk = 4096

let extend g samples i =
  Mutex.protect g.lock (fun () ->
      let r = Atomic.get g.ready in
      if i >= r then begin
        let n = Array.length samples in
        let stop = min n ((i / chunk + 1) * chunk) in
        for j = r to stop - 1 do
          let p = g.base.((j - g.steps + n) mod n) *. g.factor in
          samples.(j) <-
            (if Sweep_util.Rng.float g.rng 1.0 < g.drop_frac then 0.0 else p)
        done;
        Atomic.set g.ready stop
      end)

let ensure t i =
  match t.gen with
  | None -> ()
  | Some g -> if i >= Atomic.get g.ready then extend g t.samples i

let samples t = t.samples

let complete t =
  ensure t (Array.length t.samples - 1);
  t.samples

let sample_dt t = t.dt_s
let tag t = t.tag
let with_tag t tag = { t with tag = Some tag }

let power t time_s =
  let idx = int_of_float (time_s /. t.dt_s) in
  let n = Array.length t.samples in
  let i = ((idx mod n) + n) mod n in
  ensure t i;
  t.samples.(i)

let mean_power t =
  let samples = complete t in
  Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let duty_cycle t =
  let samples = complete t in
  let live =
    Array.fold_left (fun acc p -> if p > 1.0e-6 then acc + 1 else acc) 0 samples
  in
  float_of_int live /. float_of_int (Array.length samples)

(* ---- jitter (the fleet's per-device power perturbation) ----

   Rotate, then scale, then drop, fused into one lazy pass over the
   100 µs grid; [t] is never mutated.  Validation mirrors [load_csv]:
   parameters that would shift timestamps negative (or otherwise break
   the monotone zero-based grid the zero-order-hold lookup assumes) are
   a [Failure], not a silent corruption.

   The rotation reads the source at (x - shift_s), wrapping, so
   timestamps stay the 0, dt, 2·dt, … grid; a negative shift would be a
   left rotation expressible only with negative timestamps pre-wrap
   (callers wanting one can shift by duration - s).  Dropped samples are
   zeroed in place, never removed: removing rows would compress the
   timeline.  The drop stream is one draw per sample, in index order
   over the rotated grid, so [extend] generates strictly in index order
   (a read past [ready] generates everything before it): a sample's
   value cannot depend on the order samples are read in. *)
let jitter t ~shift_s ~factor ~drop_seed ~drop_frac =
  if not (Float.is_finite shift_s) then
    failwith (Printf.sprintf "Power_trace.jitter: non-finite shift %g" shift_s);
  if shift_s < 0.0 then
    failwith
      (Printf.sprintf
         "Power_trace.jitter: negative shift %g would produce negative \
          timestamps"
         shift_s);
  if not (Float.is_finite factor) then
    failwith (Printf.sprintf "Power_trace.jitter: non-finite factor %g" factor);
  if factor < 0.0 then
    failwith (Printf.sprintf "Power_trace.jitter: negative factor %g" factor);
  if not (Float.is_finite drop_frac) || drop_frac < 0.0 || drop_frac > 1.0 then
    failwith
      (Printf.sprintf "Power_trace.jitter: drop fraction %g out of [0, 1]"
         drop_frac);
  let base = complete t in
  let n = Array.length base in
  let gen =
    {
      base;
      steps = int_of_float ((shift_s /. t.dt_s) +. 0.5) mod n;
      factor;
      drop_frac;
      rng = Sweep_util.Rng.create drop_seed;
      lock = Mutex.create ();
      ready = Atomic.make 0;
    }
  in
  (* Never read past [ready], so the buffer needs no initialising. *)
  { t with samples = Array.create_float n; gen = Some gen }

let save_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time_s,power_w\n";
      Array.iteri
        (fun idx p ->
          Printf.fprintf oc "%.6f,%.9f\n" (float_of_int idx *. t.dt_s) p)
        (complete t))

let load_csv ?(kind = Rf_office) path =
  let ic = open_in path in
  let rows = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then
             match String.split_on_char ',' line with
             | [ a; b ] -> (
               match (float_of_string_opt a, float_of_string_opt b) with
               | Some time_s, Some p -> rows := (time_s, p) :: !rows
               | None, _ when !rows = [] -> () (* header *)
               | _ -> failwith ("Power_trace.load_csv: bad row " ^ line))
             | _ -> failwith ("Power_trace.load_csv: bad row " ^ line)
         done
       with End_of_file -> ()));
  let rows = List.rev !rows in
  if rows = [] then failwith "Power_trace.load_csv: empty trace";
  (* A negative or non-increasing timestamp would silently corrupt the
     zero-order hold below (earlier rows shadow later ones), and with it
     every outage count downstream — reject the file instead. *)
  ignore
    (List.fold_left
       (fun (prev, row) (ts, _) ->
         if ts < 0.0 then
           failwith
             (Printf.sprintf
                "Power_trace.load_csv: negative timestamp %g (row %d)" ts row);
         if ts <= prev then
           failwith
             (Printf.sprintf
                "Power_trace.load_csv: non-monotonic timestamp %g after %g \
                 (row %d)"
                ts prev row);
         (ts, row + 1))
       (Float.neg_infinity, 1) rows);
  let duration = List.fold_left (fun acc (ts, _) -> Float.max acc ts) 0.0 rows in
  let n = max 1 (int_of_float (duration /. dt_s) + 1) in
  let samples = Array.make n 0.0 in
  (* Zero-order hold: each row's power applies from its timestamp on. *)
  let rec fill rows idx current =
    if idx >= n then ()
    else begin
      let time = float_of_int idx *. dt_s in
      match rows with
      | (ts, p) :: rest when ts <= time -> fill rest idx p
      | _ ->
        samples.(idx) <- current;
        fill rows (idx + 1) current
    end
  in
  fill rows 0 (snd (List.hd rows));
  { kind; dt_s; samples; gen = None; tag = None }
