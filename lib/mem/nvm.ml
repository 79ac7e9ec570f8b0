open Sweep_isa

(* Word storage is demand-paged.  The simulated NVM is 16 MiB (4 Mi
   words of 4 bytes, each held in an 8-byte OCaml int), but a program
   touches a few KB of it, so zero-filling a flat 32 MiB store per
   machine would dominate machine construction.  Instead a fixed table
   of [page_count] pages starts with every entry at one shared zero
   page, which is only ever read; the first write to a page gives it
   its own zeroed storage.  Only the host representation is paged:
   addresses, events and byte counts are those of the flat store.

   Pages are [int array]s: with the element type known, loads and
   stores compile to plain unboxed accesses with no write barrier, and
   the few pages a run owns are all the GC ever scans. *)

let page_shift = 12
let page_words = 1 lsl page_shift

(* The layout as local constants: under the dev profile's [-opaque] a
   [Layout] value is a load from another module, so
   [addr / Layout.word_bytes] would compile to a hardware divide on
   every access.  Bound here they are immediates, and the divide is a
   shift.  Checked against [Layout] once, at start-up. *)
let word_shift = 2
let word_bytes = 1 lsl word_shift
let line_bytes = 64
let line_words = line_bytes / word_bytes
let nvm_bytes = 1 lsl 24
let word_count = nvm_bytes lsr word_shift
let page_count = word_count / page_words

let () =
  assert (
    word_bytes = Layout.word_bytes
    && line_bytes = Layout.line_bytes
    && line_words = Layout.words_per_line
    && nvm_bytes = Layout.nvm_bytes)

(* Shared by every [t] in every domain; never written. *)
let zero_page = Array.make page_words 0

type t = {
  pages : int array array;
  mutable read_events : int;
  mutable write_events : int;
  mutable bytes_written : int;
}

let create () =
  {
    pages = Array.make page_count zero_page;
    read_events = 0;
    write_events = 0;
    bytes_written = 0;
  }

let bad_word_addr addr =
  if addr land (word_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Nvm: unaligned word address %#x" addr)
  else invalid_arg (Printf.sprintf "Nvm: address %#x out of range" addr)

let bad_line_addr base =
  if base land (line_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Nvm: unaligned line address %#x" base)
  else invalid_arg (Printf.sprintf "Nvm: line %#x out of range" base)

(* One test on the good path; the message is built off it.  Inlined
   into the accessors, so a checked access makes no call. *)
let[@inline] check_word_addr addr =
  if addr land (word_bytes - 1) <> 0 || addr < 0 || addr >= nvm_bytes then
    bad_word_addr addr

let[@inline] check_line_addr base =
  if base land (line_bytes - 1) <> 0 || base < 0 || base > nvm_bytes - line_bytes
  then bad_line_addr base

(* After [check_word_addr]/[check_line_addr] the word index [w] is
   provably inside [word_count], so page and offset lookups skip the
   array bounds checks (they would re-test what the explicit check just
   established).  A line never straddles pages: [page_words] is a
   multiple of the line length. *)

let[@inline] page t w = Array.unsafe_get t.pages (w lsr page_shift)

let own_page t w =
  let p = Array.make page_words 0 in
  Array.unsafe_set t.pages (w lsr page_shift) p;
  p

(* The page holding word [w], made private to [t] on first write.
   Inlined, with [set], so a word store costs one pointer compare more
   than a plain array store; the cold [own_page] stays a call. *)
let[@inline] writable t w =
  let p = page t w in
  if p != zero_page then p else own_page t w

let[@inline] get t w = Array.unsafe_get (page t w) (w land (page_words - 1))
let[@inline] set t w v =
  Array.unsafe_set (writable t w) (w land (page_words - 1)) v

(* The checked address is non-negative, so the shift is the divide. *)
let read_word t addr =
  check_word_addr addr;
  t.read_events <- t.read_events + 1;
  get t (addr lsr word_shift)

let write_word t addr v =
  check_word_addr addr;
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + word_bytes;
  set t (addr lsr word_shift) v

(* One line's [line_words] (16) words, unrolled and unchecked.  A
   loop pays a poll and reloads its spilled arrays on every word, and
   [Array.blit] on an [int array] is a C call that runs the write
   barrier on each word, since it cannot know they are immediate. *)
let[@inline] copy_words (src : int array) s (dst : int array) d =
  Array.unsafe_set dst d (Array.unsafe_get src s);
  Array.unsafe_set dst (d + 1) (Array.unsafe_get src (s + 1));
  Array.unsafe_set dst (d + 2) (Array.unsafe_get src (s + 2));
  Array.unsafe_set dst (d + 3) (Array.unsafe_get src (s + 3));
  Array.unsafe_set dst (d + 4) (Array.unsafe_get src (s + 4));
  Array.unsafe_set dst (d + 5) (Array.unsafe_get src (s + 5));
  Array.unsafe_set dst (d + 6) (Array.unsafe_get src (s + 6));
  Array.unsafe_set dst (d + 7) (Array.unsafe_get src (s + 7));
  Array.unsafe_set dst (d + 8) (Array.unsafe_get src (s + 8));
  Array.unsafe_set dst (d + 9) (Array.unsafe_get src (s + 9));
  Array.unsafe_set dst (d + 10) (Array.unsafe_get src (s + 10));
  Array.unsafe_set dst (d + 11) (Array.unsafe_get src (s + 11));
  Array.unsafe_set dst (d + 12) (Array.unsafe_get src (s + 12));
  Array.unsafe_set dst (d + 13) (Array.unsafe_get src (s + 13));
  Array.unsafe_set dst (d + 14) (Array.unsafe_get src (s + 14));
  Array.unsafe_set dst (d + 15) (Array.unsafe_get src (s + 15))

let copy_line ~src ~src_pos ~dst ~dst_pos =
  if
    src_pos < 0
    || src_pos > Array.length src - line_words
    || dst_pos < 0
    || dst_pos > Array.length dst - line_words
  then invalid_arg "Nvm.copy_line";
  copy_words src src_pos dst dst_pos

let read_line t base =
  check_line_addr base;
  t.read_events <- t.read_events + 1;
  let w = base lsr word_shift in
  let p = page t w and o = w land (page_words - 1) in
  Array.sub p o line_words

let read_line_into t base ~dst ~dst_pos =
  check_line_addr base;
  t.read_events <- t.read_events + 1;
  let w = base lsr word_shift in
  let p = page t w and o = w land (page_words - 1) in
  for k = 0 to line_words - 1 do
    dst.(dst_pos + k) <- Array.unsafe_get p (o + k)
  done

(* The first [words] words of a line from [src] at [src_pos]. *)
let blit_line t base ~src ~src_pos ~words =
  let w = base lsr word_shift in
  let p = writable t w and o = w land (page_words - 1) in
  for k = 0 to words - 1 do
    Array.unsafe_set p (o + k) src.(src_pos + k)
  done

let write_line t base data =
  check_line_addr base;
  assert (Array.length data = line_words);
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + line_bytes;
  blit_line t base ~src:data ~src_pos:0 ~words:line_words

let write_line_from t base ~src ~src_pos =
  check_line_addr base;
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + line_bytes;
  blit_line t base ~src ~src_pos ~words:line_words

(* The persist-buffer drain: [n] lines, line [i] at [bases.(i)] with
   its words at [src.(i * line_words)], in index order, so a later
   duplicate overwrites an earlier one.  One range check for the
   arrays, then one address test and one unrolled copy per line. *)
let write_lines_from t ~bases ~src ~n =
  if n < 0 || n > Array.length bases || n * line_words > Array.length src then
    invalid_arg "Nvm.write_lines_from";
  for i = 0 to n - 1 do
    let base = Array.unsafe_get bases i in
    check_line_addr base;
    t.write_events <- t.write_events + 1;
    t.bytes_written <- t.bytes_written + line_bytes;
    let w = base lsr word_shift in
    copy_words src (i * line_words) (writable t w) (w land (page_words - 1))
  done

let write_line_torn t base data ~words =
  check_line_addr base;
  assert (Array.length data = line_words);
  if words <= 0 || words >= line_words then
    invalid_arg "Nvm.write_line_torn: words must be in (0, words_per_line)";
  t.write_events <- t.write_events + 1;
  t.bytes_written <- t.bytes_written + (words * word_bytes);
  blit_line t base ~src:data ~src_pos:0 ~words

let peek_word t addr =
  check_word_addr addr;
  get t (addr lsr word_shift)

let poke_word t addr v =
  check_word_addr addr;
  set t (addr lsr word_shift) v

let read_events t = t.read_events
let write_events t = t.write_events
let bytes_written t = t.bytes_written

let add_external_writes t ~events ~bytes =
  t.write_events <- t.write_events + events;
  t.bytes_written <- t.bytes_written + bytes

let reset_counters t =
  t.read_events <- 0;
  t.write_events <- 0;
  t.bytes_written <- 0

let image t ~lo ~hi =
  check_word_addr lo;
  check_word_addr hi;
  let w = lo lsr word_shift in
  Array.init ((hi - lo) asr word_shift) (fun k -> get t (w + k))
