(** Reader for crash flight-recorder artifacts
    ({!Sweep_obs.Flight.dump} output) — the header naming the failed
    job, the ring's event tail, and the metrics snapshot taken at dump
    time.  Rendered by [sweeptrace postmortem]. *)

type header = {
  schema_version : int;
  job : string;
  error : string;
  backtrace : string;
  events : int;   (** ring occupancy at dump time *)
  dropped : int;  (** events lost to ring overflow before the dump *)
}

type t = {
  header : header;
  entries : Trace_reader.entry list;  (** ring tail, oldest first *)
  malformed : int;
  metrics : Sweep_obs.Metrics.snapshot option;
}

val load : string -> (t, string) result
(** [Error] on a missing file, a non-postmortem first line, or an
    unsupported schema version; malformed event lines only count. *)

val report : ?tail:int -> source:string -> t -> Report.t
(** Render as report sections: the failure header, the last [tail]
    (default 25) events, and the metrics snapshot if present. *)
