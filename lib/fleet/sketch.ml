(* Streaming distribution sketches for fleet aggregation.

   A sketch is a set of fixed-bin histograms — bins chosen once, from
   the metric's physical range, never from the data — so folding
   devices into it is associative, order-independent for the counts,
   and O(1) memory no matter the population size.  The fold order is
   still canonical (device 0, 1, 2, …, enforced by the runner) so the
   float sums are bit-identical at any -j / --workers and across
   kill/resume: float addition is not associative, the fold order is
   therefore part of the format.

   Bin layout per metric:
   - forward-progress rate (instr/s): log10 bins, 8 per decade over
     [1, 1e9) — 72 bins, under/overflow clamped to the first/last bin;
   - total energy (J): log10 bins, 8 per decade over [1e-9, 1e3) — 96;
   - reboot count: unit-width bins over [0, 512), clamped;
   - outage-survival fraction: 101 bins, floor(x * 100).

   A quantile is read back as the upper edge of the first bin whose
   cumulative count reaches ceil(q * n), clamped to the observed
   [min, max] — a conservative estimate whose error is bounded by the
   bin width (≤ 33% relative for the log10 metrics, exact for reboot
   counts below 511, ≤ 1 point for survival). *)

module Json = Sweep_util.Json

type hist = {
  edges : float array;  (* upper edge of each bin, ascending *)
  bins : int array;
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let log_edges ~per_decade ~lo_exp ~hi_exp =
  let n = (hi_exp - lo_exp) * per_decade in
  Array.init n (fun i ->
      10.0 ** (float_of_int lo_exp +. (float_of_int (i + 1) /. float_of_int per_decade)))

let rate_edges = log_edges ~per_decade:8 ~lo_exp:0 ~hi_exp:9
let energy_edges = log_edges ~per_decade:8 ~lo_exp:(-9) ~hi_exp:3
let reboot_edges = Array.init 512 (fun i -> float_of_int i)
let survival_edges = Array.init 101 (fun i -> float_of_int i /. 100.0)

let hist edges =
  {
    edges;
    bins = Array.make (Array.length edges) 0;
    count = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
  }

(* First bin whose upper edge is >= v (clamped to the last bin) —
   binary search over the static edges. *)
let bin_of edges v =
  let n = Array.length edges in
  if v > edges.(n - 1) then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if edges.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  let v = if Float.is_nan v then 0.0 else v in
  let i = bin_of h.edges v in
  h.bins.(i) <- h.bins.(i) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v

let quantile h q =
  if h.count = 0 then None
  else begin
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int h.count)))
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < target && !i < Array.length h.bins do
      cum := !cum + h.bins.(!i);
      incr i
    done;
    let v = h.edges.(max 0 (!i - 1)) in
    Some (Float.max h.minv (Float.min h.maxv v))
  end

let mean h = if h.count = 0 then None else Some (h.sum /. float_of_int h.count)

(* Per-device metric extraction.  Survival defaults to 1.0 when the
   device saw no outage — nothing threatened it, nothing killed it. *)
type metrics = {
  rate : float;
  energy : float;
  reboots : float;
  survival : float;
}

let metrics_of (o : Sweep_sim.Driver.outcome) =
  let total_ns = Sweep_sim.Driver.total_ns o in
  let rate =
    if total_ns > 0.0 then
      float_of_int o.Sweep_sim.Driver.instructions /. (total_ns /. 1e9)
    else 0.0
  in
  let outages = o.Sweep_sim.Driver.outages in
  let survival =
    if outages = 0 then 1.0
    else
      1.0
      -. (float_of_int o.Sweep_sim.Driver.deaths /. float_of_int outages)
  in
  {
    rate;
    energy = Sweep_sim.Driver.total_joules o;
    reboots = float_of_int outages;
    survival;
  }

(* One aggregation group (the whole fleet, or one cohort). *)
type group = {
  mutable devices : int;
  mutable failed : int;
  h_rate : hist;
  h_energy : hist;
  h_reboots : hist;
  h_survival : hist;
}

let group () =
  {
    devices = 0;
    failed = 0;
    h_rate = hist rate_edges;
    h_energy = hist energy_edges;
    h_reboots = hist reboot_edges;
    h_survival = hist survival_edges;
  }

(* Tail-device record: enough to rank and to replay.  The replay
   string is a full sweepsim argument line (the spec is not available
   to report readers, so the sketch carries it verbatim). *)
type tail = {
  t_id : int;
  t_arm : string;
  t_rate : float;
  t_energy : float;
  t_reboots : int;
  t_survival : float;
  t_replay : string;
}

let tail_keep = 8
let failed_keep = 32

type t = {
  total : group;
  mutable cohort_order : string list;  (* reversed first-seen order *)
  cohorts : (string, group) Hashtbl.t;
  mutable tails : tail list;  (* ascending (rate, id), length <= tail_keep *)
  mutable failed_ids : int list;  (* reversed; length <= failed_keep *)
  mutable failed_total : int;
}

let create () =
  {
    total = group ();
    cohort_order = [];
    cohorts = Hashtbl.create 8;
    tails = [];
    failed_ids = [];
    failed_total = 0;
  }

let cohort t name =
  match Hashtbl.find_opt t.cohorts name with
  | Some g -> g
  | None ->
    let g = group () in
    Hashtbl.replace t.cohorts name g;
    t.cohort_order <- name :: t.cohort_order;
    g

let observe_group g (m : metrics) =
  g.devices <- g.devices + 1;
  observe g.h_rate m.rate;
  observe g.h_energy m.energy;
  observe g.h_reboots m.reboots;
  observe g.h_survival m.survival

(* Keep the [tail_keep] smallest entries by (rate, id) — insertion into
   a sorted list, so the kept set is independent of arrival order. *)
let tail_less a b =
  a.t_rate < b.t_rate || (a.t_rate = b.t_rate && a.t_id < b.t_id)

let note_tail t entry =
  let rec insert = function
    | [] -> [ entry ]
    | x :: rest -> if tail_less entry x then entry :: x :: rest
      else x :: insert rest
  in
  let l = insert t.tails in
  t.tails <-
    (if List.length l > tail_keep then List.filteri (fun i _ -> i < tail_keep) l
     else l)

let fold_device t ~id ~arm ~replay (o : Sweep_sim.Driver.outcome) =
  let m = metrics_of o in
  observe_group t.total m;
  observe_group (cohort t arm) m;
  note_tail t
    {
      t_id = id;
      t_arm = arm;
      t_rate = m.rate;
      t_energy = m.energy;
      t_reboots = int_of_float m.reboots;
      t_survival = m.survival;
      t_replay = replay;
    }

let fold_failure t ~id ~arm =
  t.total.failed <- t.total.failed + 1;
  (cohort t arm).failed <- (cohort t arm).failed + 1;
  t.failed_total <- t.failed_total + 1;
  if List.length t.failed_ids < failed_keep then
    t.failed_ids <- id :: t.failed_ids

let devices t = t.total.devices + t.total.failed

(* JSON: self-describing (edges are embedded), sparse bins, %.17g
   floats — byte-stable round-trip through [of_json], the reader of
   both the journal and the final fleet.json. *)

let json_hist b h =
  Buffer.add_string b
    (Printf.sprintf "{\"count\":%d,\"sum\":%.17g,\"min\":%.17g,\"max\":%.17g,\"edges\":["
       h.count h.sum
       (if h.count = 0 then 0.0 else h.minv)
       (if h.count = 0 then 0.0 else h.maxv));
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%.17g" e))
    h.edges;
  Buffer.add_string b "],\"bins\":[";
  let first = ref true in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b (Printf.sprintf "[%d,%d]" i c)
      end)
    h.bins;
  Buffer.add_string b "]}"

let json_group b g =
  Buffer.add_string b
    (Printf.sprintf "{\"devices\":%d,\"failed\":%d,\"rate\":" g.devices
       g.failed);
  json_hist b g.h_rate;
  Buffer.add_string b ",\"energy\":";
  json_hist b g.h_energy;
  Buffer.add_string b ",\"reboots\":";
  json_hist b g.h_reboots;
  Buffer.add_string b ",\"survival\":";
  json_hist b g.h_survival;
  Buffer.add_char b '}'

let render t =
  let js = Json.escape_string in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"total\":";
  json_group b t.total;
  Buffer.add_string b ",\"cohorts\":[";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"cohort\":%s,\"group\":" (js name));
      json_group b (Hashtbl.find t.cohorts name);
      Buffer.add_char b '}')
    (List.rev t.cohort_order);
  Buffer.add_string b "],\"tail\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"cohort\":%s,\"rate\":%.17g,\"energy\":%.17g,\
            \"reboots\":%d,\"survival\":%.17g,\"replay\":%s}"
           e.t_id (js e.t_arm) e.t_rate e.t_energy e.t_reboots e.t_survival
           (js e.t_replay)))
    t.tails;
  Buffer.add_string b
    (Printf.sprintf "],\"failed_total\":%d,\"failed_ids\":[" t.failed_total);
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int id))
    (List.rev t.failed_ids);
  Buffer.add_string b "]}";
  Buffer.contents b

(* Parse back what [render] wrote — the kill/resume path.  Strict: any
   malformed field is an error, the caller falls back to a fresh
   state only when the journal line itself was torn. *)

let ( let* ) = Result.bind

let req what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "sketch: missing or mistyped field %s" what)

let hist_of_json j =
  let* count = req "count" (Json.int_member "count" j) in
  let* sum = req "sum" (Json.float_member "sum" j) in
  let* minv = req "min" (Json.float_member "min" j) in
  let* maxv = req "max" (Json.float_member "max" j) in
  let* edges_js = req "edges" (Json.list_member "edges" j) in
  let* edges =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        match Json.to_float e with
        | Some f -> Ok (f :: acc)
        | None -> Error "sketch: mistyped edge")
      (Ok []) edges_js
  in
  let edges = Array.of_list (List.rev edges) in
  let h = hist edges in
  h.count <- count;
  h.sum <- sum;
  h.minv <- (if count = 0 then infinity else minv);
  h.maxv <- (if count = 0 then neg_infinity else maxv);
  let* bins_js = req "bins" (Json.list_member "bins" j) in
  let* () =
    List.fold_left
      (fun acc pair ->
        let* () = acc in
        match Json.to_list pair with
        | Some [ i; c ] -> (
          match (Json.to_int i, Json.to_int c) with
          | Some i, Some c when i >= 0 && i < Array.length h.bins ->
            h.bins.(i) <- c;
            Ok ()
          | _ -> Error "sketch: bad bin entry")
        | _ -> Error "sketch: bad bin entry")
      (Ok ()) bins_js
  in
  Ok h

let group_of_json j =
  let* devices = req "devices" (Json.int_member "devices" j) in
  let* failed = req "failed" (Json.int_member "failed" j) in
  let* h_rate = Result.bind (req "rate" (Json.member "rate" j)) hist_of_json in
  let* h_energy =
    Result.bind (req "energy" (Json.member "energy" j)) hist_of_json
  in
  let* h_reboots =
    Result.bind (req "reboots" (Json.member "reboots" j)) hist_of_json
  in
  let* h_survival =
    Result.bind (req "survival" (Json.member "survival" j)) hist_of_json
  in
  Ok { devices; failed; h_rate; h_energy; h_reboots; h_survival }

let of_json j =
  let* total = Result.bind (req "total" (Json.member "total" j)) group_of_json in
  let* cohort_js = req "cohorts" (Json.list_member "cohorts" j) in
  let t =
    {
      total;
      cohort_order = [];
      cohorts = Hashtbl.create 8;
      tails = [];
      failed_ids = [];
      failed_total = 0;
    }
  in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        let* name = req "cohorts[].cohort" (Json.string_member "cohort" c) in
        let* g =
          Result.bind (req "cohorts[].group" (Json.member "group" c))
            group_of_json
        in
        Hashtbl.replace t.cohorts name g;
        t.cohort_order <- name :: t.cohort_order;
        Ok ())
      (Ok ()) cohort_js
  in
  let* tail_js = req "tail" (Json.list_member "tail" j) in
  let* tails =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* t_id = req "tail[].id" (Json.int_member "id" e) in
        let* t_arm = req "tail[].cohort" (Json.string_member "cohort" e) in
        let* t_rate = req "tail[].rate" (Json.float_member "rate" e) in
        let* t_energy = req "tail[].energy" (Json.float_member "energy" e) in
        let* t_reboots = req "tail[].reboots" (Json.int_member "reboots" e) in
        let* t_survival =
          req "tail[].survival" (Json.float_member "survival" e)
        in
        let* t_replay = req "tail[].replay" (Json.string_member "replay" e) in
        Ok
          ({ t_id; t_arm; t_rate; t_energy; t_reboots; t_survival; t_replay }
          :: acc))
      (Ok []) tail_js
  in
  t.tails <- List.rev tails;
  let* failed_total = req "failed_total" (Json.int_member "failed_total" j) in
  t.failed_total <- failed_total;
  let* failed_js = req "failed_ids" (Json.list_member "failed_ids" j) in
  let* failed =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        match Json.to_int e with
        | Some id -> Ok (id :: acc)
        | None -> Error "sketch: mistyped failed id")
      (Ok []) failed_js
  in
  t.failed_ids <- failed;
  Ok t

let parse s =
  match Json.parse s with Error e -> Error e | Ok j -> of_json j
