(* Declarative fleet specification.

   A spec is the complete, seed-closed description of a simulated
   device population: one base job (benchmark × design × power trace ×
   scale), a jitter envelope every device draws its private power
   perturbation from, and a weighted mixture of hardware cohorts.
   Everything downstream — device instantiation, canonical job keys,
   the aggregation journal — is a pure function of this record, so two
   runs of the same spec file produce byte-identical fleet reports.

   Jitter bounds are integers on purpose: a device's draw lands
   directly in the integer parameters of {!Sweep_exp.Jobs.jittered},
   which render exactly in the canonical key.  No float ever enters a
   device's identity. *)

module Trace = Sweep_energy.Power_trace
module Config = Sweep_machine.Config
module H = Sweep_sim.Harness
module Json = Sweep_util.Json

let schema_version = 1

type jitter = {
  max_shift_steps : int;
  amp_spread_permille : int;
  max_drop_bp : int;
}

type arm = {
  arm_name : string;
  weight : int;
  farads : float;
  cache_bytes : int;
  assoc : int;
  buffer_entries : int;
}

type t = {
  name : string;
  devices : int;
  seed : int;
  bench : string;
  scale : float;
  design : H.design;
  trace : Trace.kind;
  v_max : float;
  v_min : float;
  jitter : jitter;
  arms : arm list;
}

let no_jitter = { max_shift_steps = 0; amp_spread_permille = 0; max_drop_bp = 0 }

let default_arm =
  {
    arm_name = "base";
    weight = 1;
    farads = 470e-9;
    cache_bytes = Config.default.Config.cache_size_bytes;
    assoc = Config.default.Config.cache_assoc;
    buffer_entries = Config.default.Config.buffer_entries;
  }

(* Names feed the job label "fleet:<spec>/<arm>" whose canonical key
   uses '|' as the field separator and '/' as the spec/arm separator —
   so neither may appear inside a name (nor whitespace, for the CLI). *)
let valid_name s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       s

(* Accept the canonical kind name in any case ("RFOffice" or
   "rfoffice") — the lowercase form is what sweepsim's -t flag takes,
   so spec files and replay command lines can share spelling. *)
let trace_of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun k -> String.lowercase_ascii (Trace.kind_name k) = s)
    Trace.all_kinds

(* Short design names, matching sweepsim's -d flag (H.design_name gives
   display names like "SweepCache"). *)
let design_short_names =
  [
    ("nvp", H.Nvp); ("wt", H.Wt); ("nvsram", H.Nvsram);
    ("nvsram-e", H.Nvsram_e); ("replay", H.Replay); ("nvmr", H.Nvmr);
    ("sweep", H.Sweep);
  ]

let design_of_name s =
  List.assoc_opt (String.lowercase_ascii s) design_short_names

let design_name d =
  fst (List.find (fun (_, d') -> d' = d) design_short_names)

let validate t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not (valid_name t.name) then
    bad "name %S must be non-empty [a-zA-Z0-9._-]" t.name;
  if t.devices < 1 then bad "devices %d < 1" t.devices;
  if not (List.mem t.bench (Sweep_workloads.Registry.names ())) then
    bad "unknown benchmark %S" t.bench;
  if not (t.scale > 0.0 && t.scale <= 1.0) then
    bad "scale %g outside (0, 1]" t.scale;
  if not (t.v_min > 0.0 && t.v_max > t.v_min) then
    bad "thresholds need v_max %g > v_min %g > 0" t.v_max t.v_min;
  if t.jitter.max_shift_steps < 0 then
    bad "jitter.max_shift_steps %d < 0" t.jitter.max_shift_steps;
  (* A spread of 1000 would allow amplitude 0 — a permanently dead
     device that can only stagnate; cap below unity. *)
  if t.jitter.amp_spread_permille < 0 || t.jitter.amp_spread_permille > 999
  then bad "jitter.amp_spread_permille %d outside [0, 999]"
      t.jitter.amp_spread_permille;
  if t.jitter.max_drop_bp < 0 || t.jitter.max_drop_bp > 10000 then
    bad "jitter.max_drop_bp %d outside [0, 10000]" t.jitter.max_drop_bp;
  if t.arms = [] then bad "cohorts must be non-empty";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if not (valid_name a.arm_name) then
        bad "cohort name %S must be non-empty [a-zA-Z0-9._-]" a.arm_name;
      if Hashtbl.mem seen a.arm_name then
        bad "duplicate cohort name %S" a.arm_name;
      Hashtbl.replace seen a.arm_name ();
      if a.weight < 1 then bad "cohort %s: weight %d < 1" a.arm_name a.weight;
      if not (a.farads > 0.0) then
        bad "cohort %s: farads %g <= 0" a.arm_name a.farads;
      if not (Config.valid_geometry ~size:a.cache_bytes ~assoc:a.assoc) then
        bad "cohort %s: invalid cache geometry %dB/%d-way" a.arm_name
          a.cache_bytes a.assoc;
      if a.buffer_entries < 1 then
        bad "cohort %s: buffer_entries %d < 1" a.arm_name a.buffer_entries)
    t.arms;
  List.rev !problems

(* Canonical JSON rendering: fixed field order, %.17g floats — the
   digest below is over these bytes, so it is reproducible across
   processes and OCaml versions. *)
let render t =
  let b = Buffer.create 512 in
  let js = Json.escape_string in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema_version\":%d,\"name\":%s,\"devices\":%d,\"seed\":%d,\
        \"bench\":%s,\"scale\":%.17g,\"design\":%s,\"trace\":%s,\
        \"v_max\":%.17g,\"v_min\":%.17g,"
       schema_version (js t.name) t.devices t.seed (js t.bench) t.scale
       (js (design_name t.design))
       (js (Trace.kind_name t.trace))
       t.v_max t.v_min);
  Buffer.add_string b
    (Printf.sprintf
       "\"jitter\":{\"max_shift_steps\":%d,\"amp_spread_permille\":%d,\
        \"max_drop_bp\":%d},\"cohorts\":["
       t.jitter.max_shift_steps t.jitter.amp_spread_permille
       t.jitter.max_drop_bp);
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"weight\":%d,\"farads\":%.17g,\"cache_bytes\":%d,\
            \"assoc\":%d,\"buffer_entries\":%d}"
           (js a.arm_name) a.weight a.farads a.cache_bytes a.assoc
           a.buffer_entries))
    t.arms;
  Buffer.add_string b "]}";
  Buffer.contents b

let digest t = Digest.to_hex (Digest.string (render t))

let ( let* ) = Result.bind

let req what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %s" what)

(* Optional field with a default — absent is fine, present-but-mistyped
   is an error, so a typo'd spec never silently falls back. *)
let opt what conv default j =
  match Json.member what j with
  | None -> Ok default
  | Some v -> (
    match conv v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "mistyped field %s" what))

let jitter_of_json j =
  let* max_shift_steps =
    opt "max_shift_steps" Json.to_int no_jitter.max_shift_steps j
  in
  let* amp_spread_permille =
    opt "amp_spread_permille" Json.to_int no_jitter.amp_spread_permille j
  in
  let* max_drop_bp = opt "max_drop_bp" Json.to_int no_jitter.max_drop_bp j in
  Ok { max_shift_steps; amp_spread_permille; max_drop_bp }

let arm_of_json j =
  let* arm_name = req "cohorts[].name" (Json.string_member "name" j) in
  let* weight = opt "weight" Json.to_int default_arm.weight j in
  let* farads = opt "farads" Json.to_float default_arm.farads j in
  let* cache_bytes = opt "cache_bytes" Json.to_int default_arm.cache_bytes j in
  let* assoc = opt "assoc" Json.to_int default_arm.assoc j in
  let* buffer_entries =
    opt "buffer_entries" Json.to_int default_arm.buffer_entries j
  in
  Ok { arm_name; weight; farads; cache_bytes; assoc; buffer_entries }

let of_json j =
  let* v = req "schema_version" (Json.int_member "schema_version" j) in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported fleet spec schema_version %d" v)
  else
    let* name = req "name" (Json.string_member "name" j) in
    let* devices = req "devices" (Json.int_member "devices" j) in
    let* seed = req "seed" (Json.int_member "seed" j) in
    let* bench = req "bench" (Json.string_member "bench" j) in
    let* scale = opt "scale" Json.to_float 1.0 j in
    let* design_s = opt "design" Json.to_string "sweep" j in
    let* design =
      match design_of_name design_s with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "unknown design %S" design_s)
    in
    let* trace_s =
      opt "trace" Json.to_string (Trace.kind_name Trace.Rf_office) j
    in
    let* trace =
      match trace_of_name trace_s with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown trace %S" trace_s)
    in
    let* v_max = opt "v_max" Json.to_float 3.5 j in
    let* v_min = opt "v_min" Json.to_float 2.8 j in
    let* jitter =
      match Json.member "jitter" j with
      | None -> Ok no_jitter
      | Some jj -> jitter_of_json jj
    in
    let* arm_js =
      match Json.member "cohorts" j with
      | None -> Ok []
      | Some v -> (
        match Json.to_list v with
        | Some l -> Ok l
        | None -> Error "mistyped field cohorts")
    in
    let* arms =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          let* a = arm_of_json a in
          Ok (a :: acc))
        (Ok []) arm_js
    in
    let arms = match List.rev arms with [] -> [ default_arm ] | l -> l in
    let t =
      { name; devices; seed; bench; scale; design; trace; v_max; v_min;
        jitter; arms }
    in
    (match validate t with
    | [] -> Ok t
    | p :: _ -> Error p)

let load path = Json.load path of_json
