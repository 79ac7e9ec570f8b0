(** JSONL checkpoint of every evaluated (point, bench) cell.

    Each executed cell appends one line; an interrupted search resumes
    by loading the file and skipping every cell already present, so a
    killed-then-resumed exploration re-evaluates nothing and — because
    search decisions are a pure function of seed + cell results —
    converges to the identical frontier as an uninterrupted run.

    Lines carry no timestamps: with a fixed seed the journal itself is
    deterministic (cells are appended in canonical batch order), so CI
    can diff journals as well as frontiers.  Failed evaluations (e.g.
    {!Sweep_sim.Driver.Stagnation} on an infeasible point) are recorded
    too — a crash must not retry them forever. *)

type cell = {
  point : Space.point;
  bench : string;
  scale : float;
  key : string;          (** canonical job key ({!Space.job}) *)
  runtime_ns : float;    (** total on+off ns; 0 when [failed] *)
  nvm_writes : int;      (** 0 when [failed] *)
  completed : bool;      (** reached Halt within the driver's guards *)
  failed : bool;
  error : string;        (** "" unless [failed] *)
}

val schema_version : int

val line : cell -> string
(** One journal line, without its newline. *)

val load : string -> (cell list * string list, string) result
(** Cells in file order plus warnings.  A missing file is [Ok ([], [])].
    A torn tail ({!Sweep_util.Durable.fold_log}) is dropped with a
    warning; a committed line that does not decode — including one of
    another [schema_version] — is an error: the journal is corrupt, not
    merely truncated.  An unreadable path is an error too. *)
