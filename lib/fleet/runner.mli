(** Chunked, resumable fleet execution with streaming aggregation.

    Walks the population in canonical device order in fixed-size
    chunks: each chunk's jobs run on the executor (domain pool or
    supervised worker fleet), then every device outcome folds into the
    {!Sketch} sequentially in device order, the in-memory results store
    is cleared, and one cumulative journal line is appended.  The fold
    never runs concurrently, so the sketch is byte-identical at any
    [-j] / [--workers]; the journal advances in whole chunks, so a
    killed run resumes at the last chunk boundary and converges to the
    same bytes.  Memory stays O(chunk + sketch) regardless of
    population size. *)

val journal_schema_version : int

val default_chunk : int
(** 256 devices per executor batch / journal checkpoint. *)

exception Interrupted of { folded : int }
(** Raised (after journalling) when [kill_after] devices have been
    folded this run — the chaos hook for kill/resume tests; maps to
    exit code 3 in sweepfleet. *)

type outcome = {
  state : Sketch.t;
  resumed_from : int;  (** journal cursor the run started from *)
  report_path : string;  (** the written fleet.json *)
}

val census : Spec.t -> (string * int) list * int
(** [(devices per arm in spec order, distinct job keys)] — pure,
    O(devices) draws, no trace materialisation.  What
    [sweepfleet plan] prints and what seeds the status cohorts. *)

val journal_path : string -> string
val report_path : string -> string

val run :
  ?workers:int ->
  ?exec_config:Sweep_exp.Executor.config ->
  ?kill_after:int ->
  ?chunk:int ->
  dir:string ->
  Spec.t ->
  (outcome, string) result
(** Execute (or resume) the fleet, writing [fleet.journal] and, on
    completion, an atomically written [fleet.json] under [dir].  Resumes
    from the journal's last committed line, cutting a torn tail; a line
    that does not decode, or one from another spec (digest mismatch), is
    an [Error].  If the executor config carries a status aggregator,
    per-cohort totals are declared up front ({!Sweep_exp.Status.declare_cohort}).
    Raises {!Interrupted} when [kill_after] fires; raises
    [Invalid_argument] on an invalid spec. *)
