(** Byte-addressed non-volatile main memory (ReRAM model).

    Holds real data — recovery correctness tests compare final NVM images
    against a golden run — and counts access events for the Fig. 16
    experiment.  Timing and energy are charged by the machines, not here;
    this module is purely functional state plus accounting.

    A "write event" is one NVM write transaction regardless of width: a
    word store from a cache-free NVP and a 64-byte line write-back both
    count as one event, as in the paper's NVM-write comparison. *)

type t = private {
  pages : int array array;  (** the demand-paged store; see {!create} *)
  mutable read_events : int;
  mutable write_events : int;
  mutable bytes_written : int;
}
(** Exposed read-only so that the cycle loop's armed profiler can read
    the event counters without a call: under the dev profile's
    [-opaque], even {!write_events} is one.  Everything else goes
    through the functions below. *)

val create : unit -> t
(** Fresh zeroed NVM of {!Sweep_isa.Layout.nvm_bytes}.  Storage is
    demand-paged: every page reads from one shared zero page until its
    first write (including {!poke_word}) gives it its own, so creation
    costs a small page table, not a zero-fill of the whole store.
    Paging is invisible to callers: addresses, reads, images and
    counters behave as for a flat store. *)

val read_word : t -> int -> int
(** [read_word t addr] with [addr] word-aligned.  Counts one read event. *)

val write_word : t -> int -> int -> unit
(** [write_word t addr v].  Counts one write event. *)

val read_line : t -> int -> int array
(** [read_line t base] reads the 16-word line at [base] (line-aligned).
    Counts one read event. *)

val read_line_into : t -> int -> dst:int array -> dst_pos:int -> unit
(** Like {!read_line} but fills [dst] at [dst_pos] instead of
    allocating — the cache-fill path reads straight into the cache's
    contiguous data array.  Counts one read event. *)

val write_line : t -> int -> int array -> unit
(** [write_line t base data] writes a full line.  Counts one write
    event. *)

val write_line_from : t -> int -> src:int array -> src_pos:int -> unit
(** Line write sourced from [src] at [src_pos] (write-back straight out
    of the cache's contiguous data array).  Counts one write event. *)

val copy_line :
  src:int array -> src_pos:int -> dst:int array -> dst_pos:int -> unit
(** Copy one line's 16 words from [src] at [src_pos] to [dst] at
    [dst_pos], after one range check ([Invalid_argument] unless both
    arrays hold 16 words there).  Unrolled and free of the write
    barrier: the persist buffers copy lines with it. *)

val write_lines_from :
  t -> bases:int array -> src:int array -> n:int -> unit
(** [write_lines_from t ~bases ~src ~n] writes [n] full lines in index
    order: line [i] goes to [bases.(i)] from the 16 words at
    [src.(i * 16)], so a later duplicate base overwrites an earlier
    one.  Counts one write event per line.  A persist buffer drains
    through it in one call.  Raises [Invalid_argument] if [n] exceeds
    either array or a base is unaligned or out of range; lines before
    the bad one are already written. *)

val write_line_torn : t -> int -> int array -> words:int -> unit
(** [write_line_torn t base data ~words] models a DMA line write cut by
    a power failure: only the first [words] words (0 < [words] <
    words-per-line) of [data] reach NVM; the line's tail keeps its old
    contents.  Counts one (partial) write event.  Fault injection
    only. *)

val peek_word : t -> int -> int
(** Read without accounting (for tests and state comparison). *)

val poke_word : t -> int -> int -> unit
(** Write without accounting (program loading). *)

val read_events : t -> int
val write_events : t -> int
val bytes_written : t -> int

val add_external_writes : t -> events:int -> bytes:int -> unit
(** Account NVM write traffic that does not go through the address map —
    NVSRAM's backup transfers into its nonvolatile counterpart, NvMR's
    checkpoint writes.  Fig. 16 counts these. *)

val reset_counters : t -> unit

val image : t -> lo:int -> hi:int -> int array
(** Copy of the word contents of [\[lo, hi)] (byte bounds, aligned), for
    golden-state comparison. *)
