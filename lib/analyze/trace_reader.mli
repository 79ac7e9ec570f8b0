(** Streaming reader for the JSONL event trace
    ([sweepsim --trace out.jsonl --trace-format jsonl], or any
    {!Sweep_obs.Jsonl_sink} output).  Decodes each line back into a
    typed {!Sweep_obs.Event.t} via [Event.of_parts]. *)

type entry = { ns : float; event : Sweep_obs.Event.t }

type stats = {
  lines : int;      (** non-empty lines seen *)
  parsed : int;     (** lines decoded into events *)
  malformed : int;  (** lines rejected (bad JSON or unknown layout) *)
  dropped : int;
      (** events lost before the trace was written (sum of
          [Event.Dropped] payloads); non-zero means the trace is
          truncated and every derived view is a lower bound. *)
}

val empty_stats : stats

val parse_line : string -> entry option
(** One JSONL line → entry; [None] on malformed input.  Inverse of
    {!Sweep_obs.Jsonl_sink.render_line}. *)

val fold :
  string -> init:'a -> f:('a -> entry -> 'a) -> ('a * stats, string) result
(** Stream the file through [f] line by line (constant memory).
    [Error] only when the file cannot be read. *)

val read_all : string -> (entry list * stats, string) result
(** Materialise the whole trace, file order preserved. *)
