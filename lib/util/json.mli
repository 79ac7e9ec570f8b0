(** Minimal JSON reader and writer — just the grammar our own writers
    emit (JSONL trace lines, Chrome traces, metrics snapshots, results
    lines, BENCH files, journals, supervisor wire frames).  The tree's
    only JSON parser and string escaper.  No external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; [Error] carries a short message with offset. *)

val parse_file : string -> (t, string) result
(** Never raises: an unreadable path (missing, a directory, an I/O
    failure) is an [Error] like a parse failure.  Messages do not
    repeat the path. *)

val load : string -> (t -> ('a, string) result) -> ('a, string) result
(** [load path of_json] is {!parse_file} then [of_json], with either
    error prefixed by [path]. *)

val fold_lines :
  string -> init:'a -> ('a -> int -> string -> ('a, string) result) ->
  ('a, string) result
(** {!Durable.fold_log} for files that are not logs: a last line without
    a newline is folded like the others. *)

val render : t -> string
(** Compact serialisation; integral numbers print without a fraction,
    others as [%.17g] so parse/render round-trips. *)

val escape_string : string -> string
(** Quoted, escaped JSON string literal. *)

(** {2 Accessors} — all total, [None]/[Some] instead of exceptions. *)

val member : string -> t -> t option
val to_float : t -> float option

val to_int : t -> int option
(** Integral [Num] only. *)

val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
val float_member : string -> t -> float option
val int_member : string -> t -> int option
val string_member : string -> t -> string option
val bool_member : string -> t -> bool option
val list_member : string -> t -> t list option
