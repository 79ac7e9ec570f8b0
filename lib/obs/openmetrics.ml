(* Prometheus/OpenMetrics text exposition of a Metrics snapshot.

   Mapping (documented in DESIGN.md):
   - [Count] samples become counters: the family is declared
     [# TYPE n counter] and each sample is rendered as [n_total].
   - [Value] samples become gauges.
   - [Histo] samples become histograms: the registry's per-bucket
     counts are non-cumulative (last bound [infinity]); exposition
     buckets are cumulative with [le="+Inf"], plus [_sum]/[_count].
   - Registry names ([driver.on_fraction_pct]) are sanitised to the
     exposition charset ([a-zA-Z0-9_:], dots become underscores);
     label values escape backslash, double-quote and newline.
   The output always ends with [# EOF]. *)

(* ------------------------------------------------------------------ *)
(* Canonical-key splitting: the registry's snapshot keys are
   [name{k=v,...}] with labels already sorted.  Label values are raw;
   a value containing ',' re-joins the segment it split. *)

let split_key key =
  let n = String.length key in
  match String.index_opt key '{' with
  | Some i when n > 0 && key.[n - 1] = '}' ->
    let base = String.sub key 0 i in
    let inner = String.sub key (i + 1) (n - i - 2) in
    let segs = String.split_on_char ',' inner in
    let labels =
      List.fold_left
        (fun acc seg ->
          match String.index_opt seg '=' with
          | Some j ->
            (String.sub seg 0 j, String.sub seg (j + 1) (String.length seg - j - 1))
            :: acc
          | None -> (
            (* no '=': the previous value contained a comma *)
            match acc with
            | (k, v) :: rest -> (k, v ^ "," ^ seg) :: rest
            | [] -> (seg, "") :: acc))
        [] segs
    in
    (base, List.rev labels)
  | _ -> (key, [])

let sanitize_name s =
  let ok i c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_' || c = ':'
    || (c >= '0' && c <= '9' && i > 0)
  in
  let b = Bytes.of_string s in
  Bytes.iteri (fun i c -> if not (ok i c) then Bytes.set b i '_') b;
  if s = "" then "_" else Bytes.to_string b

let sanitize_label_name s =
  let ok i c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_'
    || (c >= '0' && c <= '9' && i > 0)
  in
  let b = Bytes.of_string s in
  Bytes.iteri (fun i c -> if not (ok i c) then Bytes.set b i '_') b;
  if s = "" then "_" else Bytes.to_string b

let escape_label_value s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize_label_name k)
               (escape_label_value v))
           labels)
    ^ "}"

let format_bound b =
  if b = infinity then "+Inf" else Printf.sprintf "%.12g" b

let format_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* ------------------------------------------------------------------ *)
(* Rendering *)

let kind_of_sample = function
  | Metrics.Count _ -> "counter"
  | Metrics.Value _ -> "gauge"
  | Metrics.Histo _ -> "histogram"

let render (snap : Metrics.snapshot) =
  (* Group by sanitised family name, preserving first-appearance order
     of families: the snapshot is sorted by canonical key, which can
     interleave unlabelled and labelled samples of different families
     ([foo] < [foo_bar] < [foo{...}]), so a plain pass would emit a
     duplicate [# TYPE]. *)
  let order = ref [] in
  let families = Hashtbl.create 16 in
  List.iter
    (fun (key, sample) ->
      let base, labels = split_key key in
      let fname = sanitize_name base in
      let fkey = (fname, kind_of_sample sample) in
      (match Hashtbl.find_opt families fkey with
      | None ->
        order := fkey :: !order;
        Hashtbl.add families fkey [ (labels, sample) ]
      | Some xs -> Hashtbl.replace families fkey ((labels, sample) :: xs)))
    snap;
  let b = Buffer.create 1024 in
  List.iter
    (fun ((fname, kind) as fkey) ->
      let samples = List.rev (Hashtbl.find families fkey) in
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" fname kind);
      List.iter
        (fun (labels, sample) ->
          let ls = render_labels labels in
          match sample with
          | Metrics.Count n ->
            Buffer.add_string b (Printf.sprintf "%s_total%s %d\n" fname ls n)
          | Metrics.Value v ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" fname ls (format_value v))
          | Metrics.Histo { count; sum; buckets } ->
            let cum = ref 0 in
            List.iter
              (fun (bound, n) ->
                cum := !cum + n;
                (* user labels first, [le] last *)
                let le =
                  List.filter (fun (k, _) -> k <> "le") labels
                  @ [ ("le", format_bound bound) ]
                in
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" fname (render_labels le)
                     !cum))
              buckets;
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" fname ls (format_value sum));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" fname ls count))
        samples)
    (List.rev !order);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let write path (snap : Metrics.snapshot) =
  Sweep_util.Durable.write_atomic path (fun oc ->
      output_string oc (render snap))

(* ------------------------------------------------------------------ *)
(* Mini-parser + promtool-style lint, used by the round-trip tests and
   [sweeptrace lint]. *)

type psample = {
  sname : string;
  labels : (string * string) list;
  value : float;
}

type family = {
  fname : string;
  ftype : string;
  samples : psample list;
}

exception Bad of string

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let parse_sample_line line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do incr i done;
  if !i = 0 then raise (Bad "expected metric name");
  let sname = String.sub line 0 !i in
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let stop = ref false in
    while not !stop do
      if !i >= n then raise (Bad "unterminated label set");
      if line.[!i] = '}' then begin
        incr i;
        stop := true
      end
      else begin
        let ls = !i in
        while !i < n && is_name_char line.[!i] do incr i done;
        if !i = ls then raise (Bad "expected label name");
        let lname = String.sub line ls (!i - ls) in
        if !i >= n || line.[!i] <> '=' then raise (Bad "expected '='");
        incr i;
        if !i >= n || line.[!i] <> '"' then raise (Bad "expected '\"'");
        incr i;
        let b = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= n then raise (Bad "unterminated label value");
          (match line.[!i] with
          | '"' -> closed := true
          | '\\' ->
            if !i + 1 >= n then raise (Bad "dangling escape");
            incr i;
            (match line.[!i] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | c -> raise (Bad (Printf.sprintf "bad escape '\\%c'" c)))
          | c -> Buffer.add_char b c);
          incr i
        done;
        labels := (lname, Buffer.contents b) :: !labels;
        if !i < n && line.[!i] = ',' then incr i
      end
    done
  end;
  if !i >= n || line.[!i] <> ' ' then raise (Bad "expected space before value");
  let v = String.trim (String.sub line !i (n - !i)) in
  let value =
    match v with
    | "+Inf" -> infinity
    | "-Inf" -> neg_infinity
    | _ -> (
      match float_of_string_opt v with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "bad value %S" v)))
  in
  { sname; labels = List.rev !labels; value }

let sample_belongs ~fname ~ftype sname =
  match ftype with
  | "counter" -> sname = fname ^ "_total"
  | "gauge" -> sname = fname
  | "histogram" ->
    sname = fname ^ "_bucket" || sname = fname ^ "_sum"
    || sname = fname ^ "_count"
  | _ -> false

let parse text =
  let lines = String.split_on_char '\n' text in
  let families = ref [] in
  let seen_types = Hashtbl.create 16 in
  let cur = ref None in
  let eof = ref false in
  let push () =
    match !cur with
    | None -> ()
    | Some (fname, ftype, samples) ->
      families := { fname; ftype; samples = List.rev samples } :: !families;
      cur := None
  in
  try
    List.iteri
      (fun idx line ->
        let ln = idx + 1 in
        let fail msg = raise (Bad (Printf.sprintf "line %d: %s" ln msg)) in
        if line = "" then ()
        else if !eof then fail "content after # EOF"
        else if line = "# EOF" then begin
          push ();
          eof := true
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          push ();
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; fname; ftype ] ->
            if not (List.mem ftype [ "counter"; "gauge"; "histogram" ]) then
              fail (Printf.sprintf "unknown type %S" ftype);
            if Hashtbl.mem seen_types fname then
              fail (Printf.sprintf "duplicate # TYPE for %s" fname);
            Hashtbl.add seen_types fname ();
            cur := Some (fname, ftype, [])
          | _ -> fail "malformed # TYPE line"
        end
        else if String.length line >= 1 && line.[0] = '#' then ()
        else begin
          let s = try parse_sample_line line with Bad m -> fail m in
          match !cur with
          | None -> fail "sample before any # TYPE"
          | Some (fname, ftype, samples) ->
            if not (sample_belongs ~fname ~ftype s.sname) then
              fail
                (Printf.sprintf "sample %s does not belong to %s family %s"
                   s.sname ftype fname);
            cur := Some (fname, ftype, s :: samples)
        end)
      lines;
    if not !eof then raise (Bad "missing # EOF terminator");
    Ok (List.rev !families)
  with Bad msg -> Error msg

(* Histogram sanity on a parsed family: cumulative non-decreasing
   buckets ending at le="+Inf", with _count equal to the +Inf bucket
   for each distinct label set. *)
let check_histogram f =
  let key_of labels =
    String.concat ","
      (List.sort compare
         (List.filter_map
            (fun (k, v) -> if k = "le" then None else Some (k ^ "=" ^ v))
            labels))
  in
  let groups = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let k = key_of s.labels in
      let g =
        match Hashtbl.find_opt groups k with
        | Some g -> g
        | None ->
          let g = ref ([], None) in
          Hashtbl.add groups k g;
          g
      in
      let buckets, count = !g in
      if s.sname = f.fname ^ "_bucket" then begin
        match List.assoc_opt "le" s.labels with
        | None -> raise (Bad (f.fname ^ ": _bucket sample without le label"))
        | Some le -> g := ((le, s.value) :: buckets, count)
      end
      else if s.sname = f.fname ^ "_count" then g := (buckets, Some s.value))
    f.samples;
  Hashtbl.iter
    (fun k g ->
      let buckets, count = !g in
      let buckets = List.rev buckets in
      if buckets = [] then
        raise (Bad (Printf.sprintf "%s{%s}: histogram without buckets" f.fname k));
      let last = ref neg_infinity in
      List.iter
        (fun (_, v) ->
          if v < !last then
            raise
              (Bad
                 (Printf.sprintf "%s{%s}: bucket counts not cumulative" f.fname k));
          last := v)
        buckets;
      (match List.rev buckets with
      | ("+Inf", inf_count) :: _ -> (
        match count with
        | Some c when c <> inf_count ->
          raise
            (Bad
               (Printf.sprintf "%s{%s}: _count %g <> +Inf bucket %g" f.fname k c
                  inf_count))
        | None ->
          raise (Bad (Printf.sprintf "%s{%s}: missing _count" f.fname k))
        | Some _ -> ())
      | _ ->
        raise (Bad (Printf.sprintf "%s{%s}: last bucket is not +Inf" f.fname k))))
    groups

let lint text =
  match parse text with
  | Error e -> Error e
  | Ok families -> (
    try
      List.iter
        (fun f -> if f.ftype = "histogram" then check_histogram f)
        families;
      Ok families
    with Bad msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Periodic exporter: mutex-guarded, wall-clock throttled, atomic
   write.  [tick] is cheap when the interval has not elapsed. *)

type exporter = {
  path : string;
  interval_s : float;
  lock : Mutex.t;
  mutable last_s : float;
}

let exporter ~path ?(interval_s = 1.0) () =
  { path; interval_s; lock = Mutex.create (); last_s = neg_infinity }

let flush e =
  Mutex.lock e.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock e.lock)
    (fun () ->
      e.last_s <- Unix.gettimeofday ();
      write e.path (Metrics.snapshot ()))

let tick e =
  let now = Unix.gettimeofday () in
  if now -. e.last_s >= e.interval_s then begin
    Mutex.lock e.lock;
    let due = now -. e.last_s >= e.interval_s in
    if due then e.last_s <- now;
    Mutex.unlock e.lock;
    if due then
      (* snapshot + write outside the lock: concurrent ticks were
         already de-duplicated by the timestamp exchange above *)
      write e.path (Metrics.snapshot ())
  end
