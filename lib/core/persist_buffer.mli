(** NVM-resident persist buffer (paper §3.2, §4.5).

    A FIFO of cacheline-sized redo entries.  It may hold multiple entries
    for the same line (multiple evictions); searches return the youngest
    match (footnote 7) and the drain to NVM applies entries oldest-first
    so the younger overwrites the older (footnote 4).

    The buffer is nonvolatile: its contents survive power failure.  The
    empty-bit of §4.4 is exactly {!is_empty}. *)

type t

exception Overflow
(** Raised when a push exceeds capacity — the compiler's store-threshold
    invariant guarantees this never happens; tests rely on the
    exception. *)

val create : capacity:int -> t

val capacity : t -> int
val count : t -> int
val is_empty : t -> bool

val push : t -> base:int -> data:int array -> unit
(** Append a line image (data is copied). *)

val push_from : t -> base:int -> src:int array -> src_pos:int -> unit
(** Like {!push} but copies 16 words from [src] at [src_pos] — the
    eviction and flush paths push straight out of the cache's
    contiguous data array without an intermediate copy.  A full buffer
    raises {!Overflow}; otherwise [Invalid_argument] unless [src]
    holds 16 words at [src_pos] (the buffer is then unchanged). *)

val search : t -> int -> (int array * int) option
(** [search t base] returns a copy of the *youngest* entry for the
    line, together with the number of entries scanned to find it
    (sequential-search cost model).  [None] scans everything. *)

val search_into : t -> int -> dst:int array -> dst_pos:int -> int
(** Allocation-free {!search}: copies the youngest match into [dst] at
    [dst_pos] and returns the scanned count (>= 1), or returns 0 when
    the line is absent ([dst] untouched).  A match raises
    [Invalid_argument] unless [dst] has room for 16 words at
    [dst_pos]. *)

val drain : t -> Sweep_mem.Nvm.t -> unit
(** Write every entry to its NVM home location, oldest-first so the
    younger of two duplicates lands last (footnote 4), and empty the
    buffer: one {!Sweep_mem.Nvm.write_lines_from} call, one write
    event per entry. *)

val entries_oldest_first : t -> (int * int array) list
(** Allocates; tests and fault injection only. *)

val truncate_to_oldest : t -> keep:int -> unit
(** Drop all but the oldest [keep] entries.  Fault injection only:
    models a stuck [phase1Complete] bit claiming a cut-short flush
    completed — the dropped tail is data that never physically reached
    the buffer. *)

val clear : t -> unit

val peak : t -> int
(** High-water mark of occupancy since creation. *)
