(** Write-back-instructive table (paper §4.6).

    A small volatile SRAM bit table — one bit per cacheline — recording
    which lines the *current region* dirtied, so the region-end flush
    reads the table instead of scanning the whole cache (and cannot
    accidentally flush the next region's freshly dirtied lines).
    SweepCache keeps one table and clears it at each boundary, once the
    flush has read it.

    Being SRAM, the table is lost on power failure — harmless, because
    the interrupted region rolls back anyway.

    Each entry also remembers the cache way the line occupied when it
    was marked, so the flush can re-check that way's tag instead of
    scanning the set; the way is a simulator hint, not modelled
    hardware. *)

type t = private {
  mutable bases : int array;
  mutable ways : int array;
  mutable count : int;
}
(** Exposed read-only so that the region-end flush can walk the table
    with plain loads: under the dev profile's [-opaque] even an
    accessor is a call.  Entry [i < count] is the line at [bases.(i)],
    marked while in way [ways.(i)], in marking order. *)

val create : unit -> t

val mark : t -> int -> way:int -> unit
(** [mark t base ~way] records a dirtied line by its base address and
    the way it occupies.  A line already in the table keeps its first
    entry: if it has since moved, the flush's tag check fails and it
    finds the line by its base. *)

val bases : t -> int list
(** Dirty line bases, in marking order.  Allocates; tests only. *)

val clear : t -> unit
