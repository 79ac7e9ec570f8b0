module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Trace = Sweep_energy.Power_trace

type power_spec =
  | Unlimited
  | Harvested of {
      kind : Trace.kind;
      farads : float;
      v_max : float;
      v_min : float;
    }
  | Jittered of {
      kind : Trace.kind;
      farads : float;
      v_max : float;
      v_min : float;
      shift_steps : int;
      amp_permille : int;
      drop_bp : int;
      drop_seed : int;
    }

let unlimited = Unlimited

(* Defaults mirror Driver.harvested / Exp_common.power so a spec and the
   Driver.power a render function builds by hand produce the same key. *)
let harvested ?(farads = 470e-9) ?(v_max = 3.5) ?(v_min = 2.8) kind =
  Harvested { kind; farads; v_max; v_min }

(* Jitter parameters are integers by design: the key below renders them
   exactly, so key-equal specs always simulate identically (a float
   parameter rounded through %g could collide in the key while
   differing in the trace). *)
let jittered ?(farads = 470e-9) ?(v_max = 3.5) ?(v_min = 2.8) ~shift_steps
    ~amp_permille ~drop_bp ~drop_seed kind =
  if shift_steps < 0 then
    invalid_arg "Jobs.jittered: shift_steps must be >= 0";
  if amp_permille < 0 then
    invalid_arg "Jobs.jittered: amp_permille must be >= 0";
  if drop_bp < 0 || drop_bp > 10_000 then
    invalid_arg "Jobs.jittered: drop_bp must be in [0, 10000]";
  Jittered
    { kind; farads; v_max; v_min; shift_steps; amp_permille; drop_bp;
      drop_seed }

let jitter_tag ~shift_steps ~amp_permille ~drop_bp ~drop_seed =
  Printf.sprintf "ts%d.am%d.dp%d.ds%d" shift_steps amp_permille drop_bp
    drop_seed

let power_id = function
  | Unlimited -> "unlimited"
  | Harvested { kind; farads; v_max; v_min } ->
    Printf.sprintf "%s/%g/%g/%g" (Trace.kind_name kind) farads v_max v_min
  | Jittered
      { kind; farads; v_max; v_min; shift_steps; amp_permille; drop_bp;
        drop_seed } ->
    Printf.sprintf "%s~%s/%g/%g/%g" (Trace.kind_name kind)
      (jitter_tag ~shift_steps ~amp_permille ~drop_bp ~drop_seed)
      farads v_max v_min

(* The canonical jitter pipeline: rotate, then scale, then drop.  Drop
   indices are drawn over the rotated grid, so the order is part of the
   device's identity — sweepsim's replay flags apply the same order. *)
let apply_jitter trace ~shift_steps ~amp_permille ~drop_bp ~drop_seed =
  let t =
    Trace.jitter trace
      ~shift_s:(float_of_int shift_steps *. Trace.sample_dt trace)
      ~factor:(float_of_int amp_permille /. 1000.0)
      ~drop_seed
      ~drop_frac:(float_of_int drop_bp /. 10_000.0)
  in
  Trace.with_tag t (jitter_tag ~shift_steps ~amp_permille ~drop_bp ~drop_seed)

let to_power = function
  | Unlimited -> Driver.Unlimited
  | Harvested { kind; farads; v_max; v_min } ->
    Driver.harvested ~v_max ~v_min ~trace:(Exp_common.trace_of kind) ~farads ()
  | Jittered
      { kind; farads; v_max; v_min; shift_steps; amp_permille; drop_bp;
        drop_seed } ->
    (* The jittered trace is per-device and transient — only the shared
       base trace goes through the memo table, or a 100k-device fleet
       would pin 100k sample buffers.  It is lazy: the device pays only
       for the samples its run reads. *)
    let trace =
      apply_jitter (Exp_common.trace_of kind) ~shift_steps ~amp_permille
        ~drop_bp ~drop_seed
    in
    Driver.harvested ~v_max ~v_min ~trace ~farads ()

(* Warm the shared trace memo without materialising per-device copies:
   what the executor calls in the parent before spawning domains. *)
let prewarm = function
  | Unlimited -> ()
  | Harvested { kind; _ } | Jittered { kind; _ } ->
    ignore (Exp_common.trace_of kind)

type t = {
  exp : string;
  setting : Exp_common.setting;
  power : power_spec;
  bench : string;
  scale : float;
}

let job ~exp ?(scale = 1.0) setting ~power bench =
  { exp; setting; power; bench; scale }

let key j =
  Exp_common.key_of ~label:j.setting.Exp_common.label
    ~design:(H.design_name j.setting.Exp_common.design)
    ~power:(power_id j.power) ~bench:j.bench ~scale:j.scale

let matrix ~exp ?scale ?(powers = [ Unlimited ]) settings benches =
  List.concat_map
    (fun power ->
      List.concat_map
        (fun setting ->
          List.map (fun bench -> job ~exp ?scale setting ~power bench) benches)
        settings)
    powers

let dedup jobs =
  let seen = Hashtbl.create (List.length jobs) in
  List.filter
    (fun j ->
      let k = key j in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    jobs
