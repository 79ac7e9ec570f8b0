module Metrics = Sweep_obs.Metrics
module Layout = Sweep_isa.Layout

(* Struct-of-arrays FIFO: entry [i] (oldest-first) is [bases.(i)] plus
   16 words at [data.(i*16)].  Capacity is fixed at creation, so pushes
   copy into preallocated storage and the hot path never allocates. *)
type t = {
  capacity : int;
  bases : int array;
  data : int array; (* capacity * words_per_line *)
  mutable count : int;
  mutable peak : int;
}

exception Overflow

(* Registry instruments are registered once at module init and stay
   valid across Metrics.reset; updates only happen when metrics are
   enabled, so the default cost is one branch per push. *)
let m_pushes = Metrics.counter "pbuf.pushes"
let m_overflows = Metrics.counter "pbuf.overflows"
let m_searches = Metrics.counter "pbuf.searches"
let m_peak = Metrics.gauge "pbuf.peak"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Persist_buffer.create";
  {
    capacity;
    bases = Array.make capacity 0;
    data = Array.make (capacity * Layout.words_per_line) 0;
    count = 0;
    peak = 0;
  }

let capacity t = t.capacity
let count t = t.count
let is_empty t = t.count = 0

let push_from t ~base ~src ~src_pos =
  if t.count >= t.capacity then begin
    if Metrics.flag.Metrics.on then Metrics.inc m_overflows;
    raise Overflow
  end;
  t.bases.(t.count) <- base;
  Array.blit src src_pos t.data (t.count * Layout.words_per_line)
    Layout.words_per_line;
  t.count <- t.count + 1;
  if t.count > t.peak then t.peak <- t.count;
  if Metrics.flag.Metrics.on then begin
    Metrics.inc m_pushes;
    Metrics.set_max m_peak (float_of_int t.peak)
  end

let push t ~base ~data =
  assert (Array.length data = Layout.words_per_line);
  push_from t ~base ~src:data ~src_pos:0

(* Youngest match = highest index; scanned counts newest-first probes
   (the newest entry costs 1).  Top-level recursion: a local [let rec]
   would allocate a closure on every miss-path search. *)
let rec scan_down bases base i =
  if i < 0 then -1
  else if Array.unsafe_get bases i = base then i
  else scan_down bases base (i - 1)

let search_index t base = scan_down t.bases base (t.count - 1)

let search t base =
  if Metrics.flag.Metrics.on then Metrics.inc m_searches;
  match search_index t base with
  | -1 -> None
  | i ->
    Some
      ( Array.sub t.data (i * Layout.words_per_line) Layout.words_per_line,
        t.count - i )

let search_into t base ~dst ~dst_pos =
  if Metrics.flag.Metrics.on then Metrics.inc m_searches;
  match search_index t base with
  | -1 -> 0
  | i ->
    Array.blit t.data (i * Layout.words_per_line) dst dst_pos
      Layout.words_per_line;
    t.count - i

(* Slot accessors, oldest-first: the drain-to-NVM path blits each entry
   straight out of [data] without materialising lists or copies. *)
let base_at t i = t.bases.(i)
let data t = t.data
let data_pos _t i = i * Layout.words_per_line

let entries_oldest_first t =
  List.init t.count (fun i ->
      ( t.bases.(i),
        Array.sub t.data (i * Layout.words_per_line) Layout.words_per_line ))

(* Fault injection only: keep the oldest [keep] entries, drop the
   youngest.  Models buffer contents that never physically made it in
   (stuck-phase1Complete truncation). *)
let truncate_to_oldest t ~keep =
  let keep = max 0 (min keep t.count) in
  if keep < t.count then t.count <- keep

let clear t = t.count <- 0
let peak t = t.peak
