module Metrics = Sweep_obs.Metrics
module Layout = Sweep_isa.Layout
module Nvm = Sweep_mem.Nvm

(* The line length as a local constant: under [-opaque],
   [Layout.words_per_line] is a load from another module.  Checked
   against [Layout] once, at start-up. *)
let line_words = 16
let () = assert (line_words = Layout.words_per_line)

(* Struct-of-arrays FIFO: entry [i] (oldest-first) is [bases.(i)] plus
   16 words at [data.(i*16)].  Capacity is fixed at creation, so pushes
   copy into preallocated storage and the hot path never allocates. *)
type t = {
  capacity : int;
  bases : int array;
  data : int array; (* capacity * line_words *)
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
    data = Array.make (capacity * line_words) 0;
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
  let n = t.count in
  Nvm.copy_line ~src ~src_pos ~dst:t.data ~dst_pos:(n * line_words);
  Array.unsafe_set t.bases n base;
  t.count <- n + 1;
  if n + 1 > t.peak then t.peak <- n + 1;
  if Metrics.flag.Metrics.on then begin
    Metrics.inc m_pushes;
    Metrics.set_max m_peak (float_of_int t.peak)
  end

let push t ~base ~data =
  assert (Array.length data = line_words);
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
    Some (Array.sub t.data (i * line_words) line_words, t.count - i)

let search_into t base ~dst ~dst_pos =
  if Metrics.flag.Metrics.on then Metrics.inc m_searches;
  match search_index t base with
  | -1 -> 0
  | i ->
    Nvm.copy_line ~src:t.data ~src_pos:(i * line_words) ~dst ~dst_pos;
    t.count - i

(* Oldest-first, so a younger duplicate lands last (footnote 4). *)
let drain t nvm =
  Nvm.write_lines_from nvm ~bases:t.bases ~src:t.data ~n:t.count;
  t.count <- 0

let entries_oldest_first t =
  List.init t.count (fun i ->
      (t.bases.(i), Array.sub t.data (i * line_words) line_words))

(* Fault injection only: keep the oldest [keep] entries, drop the
   youngest.  Models buffer contents that never physically made it in
   (stuck-phase1Complete truncation). *)
let truncate_to_oldest t ~keep =
  let keep = max 0 (min keep t.count) in
  if keep < t.count then t.count <- keep

let clear t = t.count <- 0
let peak t = t.peak
