(** Persistent content-addressed result cache.

    Maps (canonical job key, config digest) to a {!Results.summary} on
    disk, so repeated sweeps hit instead of re-simulate.  Entries are
    checksummed and committed by {!Sweep_util.Durable.write_atomic}; a
    truncated, bit-flipped or otherwise undecodable entry is detected,
    warned about, unlinked and treated as a miss — never served.  The
    directory is bounded: stores trigger LRU eviction (by mtime, hits
    refresh it) down to [max_bytes].

    All operations are mutex-guarded, so one cache value can be shared
    by every domain of the executor pool. *)

type t

type stats = { hits : int; misses : int; evictions : int; corrupt : int }

val schema_version : int
(** On-disk format version; part of every entry header and of
    {!config_digest}, so format changes invalidate cleanly. *)

val default_max_bytes : int
(** 256 MiB. *)

val create : ?max_bytes:int -> string -> t
(** [create dir] opens (creating directories as needed) a cache rooted
    at [dir]. *)

val config_digest : Exp_common.setting -> string
(** Digest of everything that affects a result but is not in the job
    key: the setting's design, machine config and compiler options,
    plus the cache format and OCaml version.  Two settings with equal
    keys but different configs can never alias. *)

val find : t -> key:string -> digest:string -> (Results.summary * float) option
(** Cached [(summary, elapsed_s)] for the job, or [None] on miss (which
    includes corrupt entries, after warning + unlink).  A hit refreshes
    the entry's LRU position. *)

val store :
  t -> key:string -> digest:string -> elapsed_s:float ->
  Results.summary -> unit
(** Persist one result (atomic; errors are swallowed — the cache is an
    accelerator, never a correctness dependency), then evict
    oldest-first until the directory fits [max_bytes]. *)

val stats : t -> stats
(** Counters since {!create} (also published to the metrics registry as
    [exp.rcache_hits] / [_misses] / [_evictions] / [_corrupt]). *)

val disk_stats : t -> int * int
(** [(entries, bytes)] currently on disk — one stat pass, no
    mutation.  What [sweepexp cache stats] prints. *)

val purge : t -> int * int
(** Delete every entry, returning [(entries, bytes)] removed.  Entries
    mid-write by a concurrent process survive (their temp files are
    invisible to the scan); the cache directory itself remains. *)
