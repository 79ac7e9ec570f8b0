(** Multi-objective Pareto frontier over evaluated design points.

    Three objectives, all lower-better: aggregate runtime (geomean of
    total simulated ns across the benches the point was evaluated on),
    NVM writes (summed over the same benches — endurance), and hardware
    cost in bits ({!Space.hw_bits}).  A point is kept iff no other
    evaluated point is at least as good on every objective and strictly
    better on one.  {!members} is sorted by a stable total order, so the
    frontier renders byte-identically whatever the insertion (worker)
    order, and two runs that evaluated the same set of points produce
    the identical frontier. *)

type objectives = {
  runtime_ns : float;
  nvm_writes : float;
  hw_bits : int;
}

type entry = {
  point : Space.point;
  benches : string list;  (** benches the aggregates cover, sorted *)
  objs : objectives;
}

val dominates : objectives -> objectives -> bool
(** [dominates a b] — [a] at least as good everywhere, better
    somewhere. *)

type t

val empty : t
val size : t -> int

val insert : t -> entry -> t
(** Drop the entry if dominated; otherwise add it and prune the members
    it dominates.  Entries must share bench coverage to be comparable —
    the search only inserts one tier. *)

val of_entries : entry list -> t

val members : t -> entry list
(** Sorted by (runtime, nvm writes, hw bits, point id). *)

val schema_version : int

val entry_line : entry -> string
(** One frontier JSONL line (no timestamp — frontier files are
    deterministic outputs, diffable across runs). *)

val write_jsonl : string -> t -> unit
(** {!members} one per line; byte-identical for equal frontiers. *)

val load : string -> (entry list, string) result
(** Read back what {!write_jsonl} wrote, in file order.  Strict: a line
    that does not decode, or carries another [schema_version], is an
    [Error] naming the path and line, as is an unreadable path. *)
