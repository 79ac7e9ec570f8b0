(** How the host tools commit files — the only module that does.

    - A whole file is written to a unique temp sibling and fsynced, then
      renamed over its target, and its directory is fsynced: after a
      crash a reader finds the old bytes or the new ones, never a mix.
    - A log line is committed once its newline is on disk.  Bytes after
      the last newline are a torn tail: {!fold_log} reports and skips
      it, and {!with_log} cuts it before the next append.

    Writers raise [Sys_error] naming the target, never the temp file.
    Readers never raise. *)

val mkdir_p : string -> unit
(** Make a directory and its missing parents. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path f] commits what [f] writes as the bytes of
    [path], which must be absent or a regular file.  If [f] raises,
    [path] keeps its old bytes and no temp file is left. *)

val sync : out_channel -> unit
(** Flush and fsync: how a streaming sink pushes a record to disk. *)

type log

val with_log : string -> (log -> 'a) -> 'a
(** [with_log path f] opens [path] for appending, creating it, cuts a
    torn tail, runs [f] and closes the log. *)

val append : log -> string -> unit
(** Commit one line; the newline is added. *)

val read : string -> (in_channel -> ('a, string) result) -> ('a, string) result
(** [read path f] runs [f] on [path] opened for reading; a [Sys_error]
    from the open or from [f]'s reads is an [Error] without the path. *)

val fold_log :
  string -> init:'a -> ('a -> int -> string -> ('a, string) result) ->
  ('a * (int * string) option, string) result
(** [fold_log path ~init f] folds [f acc lineno line] over the committed
    lines of [path] (numbered from 1, newline stripped) in constant
    memory, stopping at the first [Error].  A torn tail comes back as
    [Some (lineno, bytes)]; [f] never sees it.  Errors are as for
    {!read}. *)
