(* Spans the benchmark records around each layer's public entry point.

   The program itself carries no tracing: the replay calls every layer
   in turn and wraps each call in a span here.  Spans stay in memory
   and are written out (JSONL) only once the replay has ended, so no
   I/O lands inside a measured interval. *)

type span = {
  id : int;
  name : string;  (** "<layer>.<step>", e.g. "compiler.compile" *)
  parent : int;   (** id of the enclosing span, -1 for a root *)
  job : int;      (** index of the replayed job, -1 outside any job *)
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable open_ : int list;
  mutable job : int;
}

let create () = { spans = []; next = 0; open_ = []; job = -1 }
(* Seconds on the system-wide monotonic clock, to the nanosecond: spans
   of a few hundred nanoseconds still read as what they took, and a
   parent and its child processes share the clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let span t name f =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let s = { id = t.next; name; parent; job = t.job; t0 = now (); t1 = nan } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s.id :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- now ();
      t.open_ <- List.tl t.open_)
    f

(* One replayed job: the root span every layer call of that job nests
   under. *)
let job_span = "exp.job"

let job t ~idx f =
  t.job <- idx;
  Fun.protect ~finally:(fun () -> t.job <- -1) (fun () -> span t job_span f)

let to_array t = Array.of_list (List.rev t.spans)
let duration s = s.t1 -. s.t0

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time: a span's duration minus the part of its interval that its
   children cover (the union of their intervals, clipped to the parent,
   so overlapping children are not counted twice). *)
let self_times spans =
  let children = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  Array.map
    (fun s ->
      let intervals =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let lo = Float.max s.t0 c.t0 and hi = Float.min s.t1 c.t1 in
               if hi > lo then Some (lo, hi) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (lo, hi) ->
            let lo = Float.max lo reach in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, reach))
          (0.0, neg_infinity) intervals
      in
      duration s -. covered)
    spans

type row = {
  name : string;
  calls : int;
  self_s : float;            (** summed self time *)
  durations : float list;    (** one per call, seconds *)
}

(* One row per span name, in first-seen order. *)
let rows spans =
  let self = self_times spans in
  let order = ref [] and tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : span) ->
      let r =
        match Hashtbl.find_opt tbl s.name with
        | Some r -> r
        | None ->
          order := s.name :: !order;
          { name = s.name; calls = 0; self_s = 0.0; durations = [] }
      in
      Hashtbl.replace tbl s.name
        {
          r with
          calls = r.calls + 1;
          self_s = r.self_s +. self.(i);
          durations = duration s :: r.durations;
        })
    spans;
  List.rev_map (Hashtbl.find tbl) !order

(* Total replayed job time: the summed durations of the job roots. *)
let job_time spans =
  Array.fold_left
    (fun acc (s : span) ->
      if s.name = job_span then acc +. duration s else acc)
    0.0 spans

let layer_self rows l =
  List.fold_left
    (fun acc r -> if layer r.name = l then acc +. r.self_s else acc)
    0.0 rows

let write_jsonl path spans =
  let base = if Array.length spans = 0 then 0.0 else spans.(0).t0 in
  let oc = open_out path in
  Array.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%d,\"start_s\":%.9f,\
         \"end_s\":%.9f}\n"
        s.id s.name s.parent s.job (s.t0 -. base) (s.t1 -. base))
    spans;
  close_out oc
