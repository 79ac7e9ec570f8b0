(** The perf-regression pipeline: a pinned workload matrix and the
    schema-versioned history file (BENCH_sweepcache.json) CI appends to
    on every commit and diffs against the committed baseline.

    The simulator is fully deterministic (every simulated metric is a
    pure function of the job), so the gate compares exact values;
    wall-clock [elapsed_s] is excluded. *)

val schema_version : int

val matrix_id : string
(** Identity of the pinned matrix; bumped whenever the job set changes.
    Entries from different matrices refuse to diff. *)

val jobs : unit -> Sweep_exp.Jobs.t list
(** The pinned matrix: NVP, ReplayCache and SweepCache (empty-bit) ×
    sha/dijkstra/fft at scale 0.1 under harvested RF-home power. *)

val run : ?workers:int -> unit -> Diff.run
(** Execute the matrix through {!Sweep_exp.Executor} and project every
    summary onto the results schema's numeric fields. *)

val measure_throughput :
  ?min_seconds:float -> unit -> (string * float) list
(** Sequentially time each pinned job and report simulated
    instructions per wall-second, keyed like the results.  Each job is
    repeated until [min_seconds] (default 0.2) of wall time accumulates
    so fast simulators still yield stable numbers.  Host-dependent:
    never compared by the exact-value diff gate. *)

val geomean : (string * float) list -> float
(** Geometric mean of the measured values; 0 for an empty list. *)

type entry = {
  ts : string;
  commit : string;
  results : Diff.run;
  throughput : (string * float) list;
      (** instructions/wall-second per job; [] for schema-v1 entries,
          which predate the throughput track *)
}

val load_entries : string -> (entry list, string) result
(** [Ok []] when the file does not exist yet; [Error] on a schema or
    matrix mismatch. *)

val append : path:string -> entry -> (int, string) result
(** Append one entry, recommitting the whole file
    ({!Sweep_util.Durable.write_atomic}).  Returns the new entry count;
    a file it cannot write is an [Error]. *)

val latest : string -> (entry, string) result
