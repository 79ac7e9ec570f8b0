open Sweep_isa

(* Struct-of-arrays line storage: a line is an int index into flat
   parallel arrays, and all line data lives in one contiguous array
   ([data], 16 words per line).  No per-line records, no per-line data
   arrays — find/touch/read/write on the hot path allocate nothing, and
   fills/write-backs blit straight between [data] and NVM. *)
type t = {
  set_count : int;
  set_mask : int;
      (* [set_count - 1] when [set_count] is a power of two (the usual
         geometry), so [set_base] can mask instead of paying a hardware
         divide per access; -1 otherwise. *)
  assoc : int;
  valid : int array;        (* 0/1 *)
  dirty : int array;        (* 0/1 *)
  dirty_region : int array; (* region id of the dirtying store; -1 clean *)
  base : int array;         (* line-aligned byte address *)
  lru : int array;          (* bigger = more recently used *)
  data : int array;         (* line_count * words_per_line *)
  mutable clock : int;      (* LRU timestamp source *)
  mutable hits : int;
  mutable misses : int;
}

(* The layout as local shift constants.  Under the dev profile's
   [-opaque] a [Layout] value is a load from another module, so
   [x / Layout.line_bytes] compiles to a hardware divide; a constant
   bound in this module is an immediate, and the divide becomes a
   shift.  Checked against [Layout] once, at start-up. *)
let word_shift = 2
let line_shift = 6
let line_bytes = 1 lsl line_shift
let pos_line_shift = line_shift - word_shift
let line_words = 1 lsl pos_line_shift

let () =
  assert (
    1 lsl word_shift = Layout.word_bytes
    && line_bytes = Layout.line_bytes
    && line_words = Layout.words_per_line)

let create ~size_bytes ~assoc =
  if size_bytes <= 0 || assoc <= 0 then invalid_arg "Cache.create: sizes";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not a multiple of assoc * line";
  let set_count = size_bytes / (assoc * line_bytes) in
  let n = set_count * assoc in
  {
    set_count;
    set_mask = (if set_count land (set_count - 1) = 0 then set_count - 1 else -1);
    assoc;
    valid = Array.make n 0;
    dirty = Array.make n 0;
    dirty_region = Array.make n (-1);
    base = Array.make n 0;
    lru = Array.make n 0;
    data = Array.make (n * line_words) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let size_bytes t = t.set_count * t.assoc * line_bytes
let assoc t = t.assoc
let line_count t = t.set_count * t.assoc

(* Non-power-of-two set counts only: kept out of line so the divide
   stays off the common path's code. *)
let[@inline never] set_mod t s = s mod t.set_count

(* [addr asr line_shift] is [Layout.line_base addr / line_bytes] for
   every int: the line base is an exact multiple of the line size. *)
let[@inline] set_base t addr =
  let s = addr asr line_shift in
  (if t.set_mask >= 0 then s land t.set_mask else set_mod t s) * t.assoc

let no_line = -1

let[@inline] line_base addr = addr land lnot (line_bytes - 1)

(* The way of [addr]'s set holding its line, or [no_line].  A loop,
   inlined into both callers: the hit path makes no call of its own. *)
let[@inline] scan t addr =
  let s = set_base t addr in
  let base = line_base addr in
  let last = s + t.assoc - 1 in
  let li = ref s in
  while
    !li <= last
    && not
         (Array.unsafe_get t.valid !li = 1
         && Array.unsafe_get t.base !li = base)
  do
    incr li
  done;
  if !li > last then no_line else !li

let find t addr = scan t addr

let touch t li =
  t.clock <- t.clock + 1;
  t.lru.(li) <- t.clock

module Metrics = Sweep_obs.Metrics

let m_hits = Metrics.counter "cache.hits"
let m_misses = Metrics.counter "cache.misses"

(* The hit path in one call: {!find}'s scan, the hit count and the LRU
   touch, then the word's position in [data] — everything a design's
   load or store hit needs from the cache.  The metrics switch is a
   field read, so with metrics off and a power-of-two set count
   nothing here calls out. *)
let lookup t addr =
  let li = scan t addr in
  if li = no_line then no_line
  else begin
    t.hits <- t.hits + 1;
    if Metrics.flag.Metrics.on then Metrics.inc m_hits;
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru li t.clock;
    (li lsl pos_line_shift) + ((addr asr word_shift) land (line_words - 1))
  end

let rec first_invalid valid i last =
  if i > last then no_line
  else if Array.unsafe_get valid i = 0 then i
  else first_invalid valid (i + 1) last

let rec lru_min lru i last best =
  if i > last then best
  else
    lru_min lru (i + 1) last
      (if Array.unsafe_get lru i < Array.unsafe_get lru best then i else best)

let victim t addr =
  let s = set_base t addr in
  let last = s + t.assoc - 1 in
  let i = first_invalid t.valid s last in
  if i <> no_line then i else lru_min t.lru (s + 1) last s

let valid t li = t.valid.(li) = 1
let dirty t li = t.dirty.(li) = 1
let dirty_region t li = t.dirty_region.(li)
let line_addr t li = t.base.(li)

let set_dirty t li ~region =
  t.dirty.(li) <- 1;
  t.dirty_region.(li) <- region

let clear_dirty t li =
  t.dirty.(li) <- 0;
  t.dirty_region.(li) <- -1

let data t = t.data
let data_pos _t li = li lsl pos_line_shift

(* Tag-only install of a fill into a victim way the caller already
   chose (its previous occupant handled, the miss scan done once).  The
   line comes up clean; the caller fills [data] at [data_pos] itself —
   from NVM via {!Nvm.read_line_into}, or from a persist buffer. *)
let install_victim t li addr =
  t.valid.(li) <- 1;
  t.dirty.(li) <- 0;
  t.dirty_region.(li) <- -1;
  t.base.(li) <- line_base addr;
  touch t li

let install t addr line_data =
  assert (Array.length line_data = line_words);
  (* Reinstalling a resident line must not create a duplicate in another
     way: reuse the existing line. *)
  let li =
    match find t addr with i when i <> no_line -> i | _ -> victim t addr
  in
  install_victim t li addr;
  Array.blit line_data 0 t.data (li lsl pos_line_shift) line_words;
  li

let copy_line_data t li = Array.sub t.data (li lsl pos_line_shift) line_words

(* [word_index] is the checked twin of {!lookup}'s position arithmetic,
   for callers that hold a line index; its bounds checks are only for
   catching layout bugs during development, so they hide behind a
   runtime flag (off by default, switched on by the unit tests). *)
let debug_checks = ref false
let set_debug_checks b = debug_checks := b

let word_index t li addr =
  let off = addr - t.base.(li) in
  if !debug_checks then begin
    assert (off >= 0 && off < line_bytes);
    assert (addr land ((1 lsl word_shift) - 1) = 0)
  end;
  (li lsl pos_line_shift) + (off asr word_shift)

let read_word t li addr = t.data.(word_index t li addr)
let write_word t li addr v = t.data.(word_index t li addr) <- v

let dirty_lines t =
  let acc = ref [] in
  for i = line_count t - 1 downto 0 do
    if t.valid.(i) = 1 && t.dirty.(i) = 1 then acc := i :: !acc
  done;
  !acc

let iter_lines t f =
  for i = 0 to line_count t - 1 do
    f i
  done

let invalidate_all t =
  iter_lines t (fun i ->
      t.valid.(i) <- 0;
      t.dirty.(i) <- 0;
      t.dirty_region.(i) <- -1)

let clean_all t =
  iter_lines t (fun i ->
      t.dirty.(i) <- 0;
      t.dirty_region.(i) <- -1)

let record_miss t =
  t.misses <- t.misses + 1;
  if Metrics.flag.Metrics.on then Metrics.inc m_misses

let hits t = t.hits
let misses t = t.misses
let accesses t = t.hits + t.misses

let miss_rate t =
  let total = accesses t in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0
