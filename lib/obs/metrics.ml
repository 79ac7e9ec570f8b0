(* Process-wide metrics registry: named counters / gauges / histograms
   with optional labels.  All instruments are lock-free on the update
   path (Atomics; CAS loops for float accumulation) so publishing from
   worker domains is safe; only registration takes the lock.

   [reset] zeroes values but never removes instruments — handles created
   at module-initialisation time (persist-buffer, cache) stay valid
   across test runs. *)

module Json = Sweep_util.Json

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  bounds : float array;           (* ascending upper bounds *)
  counts : int Atomic.t array;    (* one per bound, plus overflow at the end *)
  sum : float Atomic.t;
  hcount : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

let lock = Mutex.create ()
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

type flag = { mutable on : bool }

let flag = { on = false }
let set_enabled b = flag.on <- b
let enabled () = flag.on

let canonical name labels =
  match labels with
  | [] -> name
  | labels ->
    let labels = List.sort compare labels in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let counter ?(labels = []) name =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let key = canonical name labels in
      match Hashtbl.find_opt registry key with
      | Some (C c) -> c
      | Some _ -> invalid_arg ("Metrics: " ^ key ^ " is not a counter")
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace registry key (C c);
        c)

let gauge ?(labels = []) name =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let key = canonical name labels in
      match Hashtbl.find_opt registry key with
      | Some (G g) -> g
      | Some _ -> invalid_arg ("Metrics: " ^ key ^ " is not a gauge")
      | None ->
        let g = Atomic.make 0.0 in
        Hashtbl.replace registry key (G g);
        g)

let default_buckets =
  [| 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 30.0; 60.0 |]

let histogram ?(labels = []) ?(buckets = default_buckets) name =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let key = canonical name labels in
      match Hashtbl.find_opt registry key with
      | Some (H h) -> h
      | Some _ -> invalid_arg ("Metrics: " ^ key ^ " is not a histogram")
      | None ->
        let h =
          {
            bounds = Array.copy buckets;
            counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            sum = Atomic.make 0.0;
            hcount = Atomic.make 0;
          }
        in
        Hashtbl.replace registry key (H h);
        h)

let inc c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let rec atomic_float_add a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_float_add a x

let rec set_max g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then set_max g v

let observe h x =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || x <= h.bounds.(i) then i else slot (i + 1) in
  Atomic.incr h.counts.(slot 0);
  Atomic.incr h.hcount;
  atomic_float_add h.sum x

(* ------------------------------------------------------------------ *)

type sample =
  | Count of int
  | Value of float
  | Histo of { count : int; sum : float; buckets : (float * int) list }

type snapshot = (string * sample) list

let sample_of = function
  | C c -> Count (Atomic.get c)
  | G g -> Value (Atomic.get g)
  | H h ->
    Histo
      {
        count = Atomic.get h.hcount;
        sum = Atomic.get h.sum;
        buckets =
          List.init (Array.length h.bounds) (fun i ->
              (h.bounds.(i), Atomic.get h.counts.(i)))
          @ [ (infinity, Atomic.get h.counts.(Array.length h.bounds)) ];
      }

let snapshot () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      Hashtbl.fold (fun k v acc -> (k, sample_of v) :: acc) registry []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let diff ~before ~after =
  let before_tbl = Hashtbl.create (List.length before) in
  List.iter (fun (k, s) -> Hashtbl.replace before_tbl k s) before;
  List.map
    (fun (k, s) ->
      match (s, Hashtbl.find_opt before_tbl k) with
      | Count a, Some (Count b) -> (k, Count (a - b))
      | Histo a, Some (Histo b) ->
        ( k,
          Histo
            {
              count = a.count - b.count;
              sum = a.sum -. b.sum;
              buckets =
                List.map2
                  (fun (bound, ca) (_, cb) -> (bound, ca - cb))
                  a.buckets b.buckets;
            } )
      | s, _ -> (k, s))
    after

let reset () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      Hashtbl.iter
        (fun _ v ->
          match v with
          | C c -> Atomic.set c 0
          | G g -> Atomic.set g 0.0
          | H h ->
            Array.iter (fun c -> Atomic.set c 0) h.counts;
            Atomic.set h.sum 0.0;
            Atomic.set h.hcount 0)
        registry)

(* Machine-readable snapshot export (--metrics-out): one object keyed by
   canonical series name.  The histogram overflow bucket's bound is the
   string "+inf" (JSON has no infinity literal). *)
let json_schema_version = 1

let render_json snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema_version\":%d,\"metrics\":{" json_schema_version);
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.escape_string name);
      Buffer.add_char b ':';
      match s with
      | Count n ->
        Buffer.add_string b
          (Printf.sprintf "{\"type\":\"counter\",\"value\":%d}" n)
      | Value v ->
        Buffer.add_string b
          (Printf.sprintf "{\"type\":\"gauge\",\"value\":%.17g}" v)
      | Histo { count; sum; buckets } ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"type\":\"histogram\",\"count\":%d,\"sum\":%.17g,\"buckets\":["
             count sum);
        List.iteri
          (fun j (bound, n) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "{\"le\":%s,\"n\":%d}"
                 (if bound = infinity then "\"+inf\""
                  else Printf.sprintf "%.17g" bound)
                 n))
          buckets;
        Buffer.add_string b "]}")
    snap;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Read back what [render_json] wrote.  A series whose sample does not
   decode is skipped; a missing or foreign [schema_version] is an
   error. *)
let bound_of = function
  | Json.Num f -> Some f
  | Json.Str "+inf" -> Some infinity
  | _ -> None

let sample_of_json j =
  let ( let* ) = Option.bind in
  match Json.string_member "type" j with
  | Some "counter" -> Option.map (fun n -> Count n) (Json.int_member "value" j)
  | Some "gauge" -> Option.map (fun v -> Value v) (Json.float_member "value" j)
  | Some "histogram" ->
    let* count = Json.int_member "count" j in
    let* sum = Json.float_member "sum" j in
    let* buckets = Json.list_member "buckets" j in
    let* buckets =
      List.fold_right
        (fun b acc ->
          let* acc = acc in
          let* le = Option.bind (Json.member "le" b) bound_of in
          let* n = Json.int_member "n" b in
          Some ((le, n) :: acc))
        buckets (Some [])
    in
    Some (Histo { count; sum; buckets })
  | _ -> None

let of_json j =
  match (Json.int_member "schema_version" j, Json.member "metrics" j) with
  | Some v, Some (Json.Obj series) when v = json_schema_version ->
    Ok
      (List.filter_map
         (fun (name, s) -> Option.map (fun s -> (name, s)) (sample_of_json s))
         series)
  | Some v, Some _ when v <> json_schema_version ->
    Error (Printf.sprintf "unsupported metrics schema_version %d" v)
  | _ -> Error "not a metrics snapshot (missing schema_version/metrics)"

let load path = Json.load path of_json

let write_json path snap =
  Sweep_util.Durable.write_atomic path (fun oc ->
      output_string oc (render_json snap);
      output_char oc '\n')

let render snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, s) ->
      match s with
      | Count n -> Buffer.add_string b (Printf.sprintf "%-48s %d\n" name n)
      | Value v -> Buffer.add_string b (Printf.sprintf "%-48s %g\n" name v)
      | Histo { count; sum; _ } ->
        Buffer.add_string b
          (Printf.sprintf "%-48s count=%d sum=%g mean=%g\n" name count sum
             (if count = 0 then 0.0 else sum /. float_of_int count)))
    snap;
  Buffer.contents b
