(** Set-associative volatile SRAM data cache with real data.

    The cache is a passive structure: machines orchestrate miss handling,
    write-backs and flushes themselves, because each design (WT, NVSRAM,
    ReplayCache, SweepCache) treats those events differently.  Lines carry
    a [dirty_region] tag — the id of the region whose store dirtied the
    line — which SweepCache's write-after-write rule needs (§4.3).

    Storage is struct-of-arrays: a line is an [int] index (dense in
    [0, line_count)), its metadata lives in flat parallel arrays and its
    16 words occupy one slice of a single contiguous data array, so the
    simulator's hot path runs without per-access allocation.  {!find}
    returns {!no_line} on a miss rather than an option.

    Power failure wipes the cache ({!invalidate_all}); NVSRAM restores it
    from its nonvolatile counterpart by re-installing saved lines. *)

type t = private {
  set_count : int;
  set_mask : int;  (** [set_count - 1] for power-of-two set counts, else -1 *)
  assoc : int;
  valid : int array;  (** per line, 0/1 *)
  dirty : int array;  (** per line, 0/1 *)
  dirty_region : int array;  (** per line: region of the dirtying store, -1 clean *)
  base : int array;  (** per line: line-aligned byte address *)
  lru : int array;  (** per line: bigger = more recently used *)
  data : int array;  (** [line_count * 16] words, line [li] at [li * 16] *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}
(** Exposed read-only (the arrays' contents excepted) so that a
    design's hit path can test and set a line's state with plain loads
    and stores: under the dev profile's [-opaque] even a one-line
    accessor such as {!dirty} is a call.  A hit path may write a word
    of [data] at the position {!lookup} returned, and set a line dirty
    by writing [dirty] and [dirty_region] exactly as {!set_dirty} does;
    everything else goes through the functions below. *)

val create : size_bytes:int -> assoc:int -> t
(** [create ~size_bytes ~assoc]; [size_bytes] must be a multiple of
    [assoc * 64].  The paper default is 4 kB, 2-way. *)

val size_bytes : t -> int
val assoc : t -> int
val line_count : t -> int

val no_line : int
(** The miss sentinel (-1) returned by {!find} and {!victim}-style
    scans; never a valid line index. *)

val find : t -> int -> int
(** [find t addr] returns the index of the line containing [addr], or
    {!no_line}.  Touches neither LRU state nor counters: cold paths
    use it to inspect the cache; accesses go through {!lookup}. *)

val lookup : t -> int -> int
(** The fused hit path.  When [addr]'s line is resident, [lookup t addr]
    counts a hit (in {!hits} and the [cache.hits] metric), marks the
    line most recently used (as {!touch}) and returns the position of
    [addr]'s word in {!data}; otherwise it returns {!no_line} and
    changes nothing — the caller records the miss.  The line is
    [pos lsr pos_line_shift].  No call, no divide: this is the only
    cache call on a design's hit path. *)

val pos_line_shift : int
(** [pos lsr pos_line_shift] is the line index of data position [pos]
    (log2 of the 16 words per line). *)

val touch : t -> int -> unit
(** Mark a line most-recently-used. *)

val victim : t -> int -> int
(** The line to (re)use for a fill of [addr]'s set: an invalid way if one
    exists, else the LRU way.  The caller must write back the victim's
    data first if it is valid and dirty. *)

val install_victim : t -> int -> int -> unit
(** [install_victim t li addr] retags the victim way [li] (from
    {!victim}, after the caller missed via {!find} and handled the
    occupant) as a clean resident line for [addr] and touches it.  The
    caller fills the line's words itself — via
    {!Nvm.read_line_into}[ nvm base ~dst:(data t) ~dst_pos:(data_pos t li)]
    or a persist-buffer blit — so the miss path scans the set exactly
    once and copies the data exactly once. *)

val install : t -> int -> int array -> int
(** [install t addr data] fills [addr]'s set with the given line data
    (clean) and returns the line: the resident line if [addr] is
    already cached (no duplicate ways), else the victim way.  Cold-path
    convenience (recovery reinstalls, tests); the miss path proper uses
    {!find}/{!victim}/{!install_victim}. *)

val valid : t -> int -> bool
val dirty : t -> int -> bool

val dirty_region : t -> int -> int
(** Region id of the dirtying store; -1 if clean. *)

val line_addr : t -> int -> int
(** The line's base (line-aligned byte address). *)

val set_dirty : t -> int -> region:int -> unit
val clear_dirty : t -> int -> unit

val read_word : t -> int -> int -> int
(** [read_word t li addr] for an address inside line [li]. *)

val write_word : t -> int -> int -> int -> unit
(** Writes data only; dirtiness is the caller's concern. *)

val data : t -> int array
(** The contiguous backing store, [line_count * 16] words. *)

val data_pos : t -> int -> int
(** Word offset of line [li]'s data within {!data}. *)

val copy_line_data : t -> int -> int array
(** Fresh 16-word copy of a line's data (cold paths: backups, pushes
    into legacy array-based consumers). *)

val dirty_lines : t -> int list
(** All valid dirty lines, in line-index (set) order. *)

val iter_lines : t -> (int -> unit) -> unit
(** Every way, valid or not; the callback filters on {!valid}. *)

val invalidate_all : t -> unit
(** Power failure: every line is lost. *)

val clean_all : t -> unit
(** Reset every dirty bit without touching data (SweepCache's post-flush
    state: "flushed data still remain in the cache", §4.2). *)

val record_miss : t -> unit
val hits : t -> int
val misses : t -> int
val accesses : t -> int
val miss_rate : t -> float
val reset_counters : t -> unit

val set_debug_checks : bool -> unit
(** Enable the word-index bounds assertions on the access hot path.
    Off by default (release throughput); the memory unit tests switch
    it on so layout bugs still fail loudly under [dune runtest]. *)
