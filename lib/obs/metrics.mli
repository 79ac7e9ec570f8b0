(** Process-wide metrics registry: named counters, gauges and
    histograms with labels; snapshot and diff.

    Updates are lock-free (Atomics), so publishing from worker domains
    is safe; only registration takes a lock.  Same name + labels returns
    the same handle.  {!reset} zeroes values but keeps instruments, so
    handles created at module-initialisation time stay valid.

    Publishing is opt-in: hot-path instrumentation (persist-buffer
    pushes, cache hit/miss) checks {!flag} first, which is a single
    field read and branch when metrics are off. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

type flag = private { mutable on : bool }

val flag : flag
(** The switch behind {!enabled}.  Per-access hot paths test
    [Metrics.flag.on]: a field read, where [enabled ()] is a call that
    the dev profile's [-opaque] never inlines.  Read-only outside this
    module; {!set_enabled} writes it. *)

val counter : ?labels:(string * string) list -> string -> counter
val gauge : ?labels:(string * string) list -> string -> gauge

val histogram :
  ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are ascending upper bounds; an overflow bucket is added. *)

val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Raise the gauge to [v] if larger (high-water marks). *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

type sample =
  | Count of int
  | Value of float
  | Histo of { count : int; sum : float; buckets : (float * int) list }
      (** [buckets] pairs each upper bound (last is [infinity]) with the
          number of observations in that bucket (non-cumulative). *)

type snapshot = (string * sample) list
(** Sorted by canonical name ([name{k=v,...}]). *)

val snapshot : unit -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter and histogram samples subtract; gauges keep the [after]
    value; instruments absent from [before] count from zero. *)

val reset : unit -> unit
(** Zero every instrument (tests); registrations are kept. *)

val render : snapshot -> string
(** Plain-text dump, one instrument per line. *)

val json_schema_version : int
(** Layout version stamped into {!render_json} output. *)

val render_json : snapshot -> string
(** Machine-readable snapshot
    ([{"schema_version":1,"metrics":{name:{type,…}}}]); histogram
    bucket bounds pair [le] (the overflow bound is the string
    ["+inf"]) with the per-bucket count [n].  This is what
    [--metrics-out] writes and what [sweeptrace] reads back. *)

val write_json : string -> snapshot -> unit
(** {!render_json} to a file (plus trailing newline). *)
