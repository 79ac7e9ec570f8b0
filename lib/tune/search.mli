(** Seeded search strategies over a {!Space}, evaluated on the
    {!Sweep_exp.Executor} domain pool.

    Three strategies:
    - [Grid] — canonical-order exhaustive walk; the budget truncates to
      the points whose full bench ladder fits.
    - [Random] — like [Grid] on a seeded shuffle of the points, for
      spaces too large to walk.
    - [Halving] — successive halving: every candidate is evaluated on
      the first (cheapest) bench rung; survivors — all Pareto-rank-0
      points, topped up to half the field by scalar runtime — are
      promoted to the next rung's additional benches, and so on up the
      ladder.  Shared cells dedup through {!Sweep_exp.Jobs} keys, so a
      point pays each bench at most once however often it is promoted.

    The budget counts {e scheduled} cells — journal-cached cells count
    too, so a resumed search walks the exact decision sequence of an
    uninterrupted one and converges to the identical frontier.  All
    ordering is canonical ({!Space.compare}); worker count affects
    wall-clock only. *)

type strategy = Grid | Random | Halving

val strategy_name : strategy -> string
val strategy_of_name : string -> strategy option

type params = {
  space : Space.t;
  strategy : strategy;
  budget : int;   (** max scheduled (point, bench) cells *)
  seed : int;     (** drives [Random]'s shuffle *)
  scale : float;  (** workload scale for every cell *)
  ladder : string list list;
      (** bench rungs, cheapest first; [Grid]/[Random] run the
          flattened ladder *)
  early_stop : float option;
      (** kill dominated cells: [Some margin] gracefully stops any cell
          once its simulated time exceeds [margin *.] the best completed
          runtime journalled for the same bench.  Budgets are frozen per
          execution chunk from journalled state only, so the decision
          sequence — and the journal — stays byte-identical across
          worker counts and kill/resume.  Stopped cells are journalled
          as [completed = false] with an ["early-stopped: ..."] error,
          emit {!Sweep_obs.Event.Tune_prune}, and are excluded from the
          frontier like any other incomplete cell.  [None] (the
          default) reproduces the non-early-stop search exactly. *)
}

val default_ladder : string list list
(** [[sha]; [dijkstra; fft]; [adpcmdec; gsmdec; susans]] — rung sizes
    1/2/3 from the 10-benchmark subset. *)

val default_params : params
(** Pinned matrix, [Halving], budget 200, seed 42, scale 0.2, no
    early stop. *)

type outcome = {
  frontier : Frontier.t;
  tier : int;                   (** deepest completed rung index *)
  tier_benches : string list;   (** cumulative benches at that tier *)
  tier_points : int;            (** candidates evaluated at that tier *)
  scheduled : int;              (** cells charged against the budget *)
  executed : int;               (** cells actually simulated this run *)
  cached : int;                 (** cells answered by the journal *)
  failed_points : (Space.point * string) list;
      (** points excluded from the frontier (Stagnation, guards), with
          the first error; canonical order *)
}

exception Interrupted of { executed : int }
(** Raised by [run] when [kill_after] fires (the CI resume-equivalence
    crash); the journal holds every batch completed so far. *)

val plan : params -> Space.point list * int
(** The strategy's initial candidate list (budget-truncated for
    [Grid]/[Random]) and the worst-case cell count — the dry run behind
    [sweeptune plan]. *)

val run :
  ?workers:int ->
  ?kill_after:int ->
  ?exec_config:Sweep_exp.Executor.config ->
  journal:string ->
  params ->
  (outcome * string list, string) result
(** Execute the search, resuming from [journal] if it exists and
    appending every newly executed cell to it.  [kill_after n] aborts
    (with {!Interrupted}) at the first batch boundary where at least
    [n] cells have been simulated {e this run}.  [exec_config] is
    passed to every {!Sweep_exp.Executor.execute} chunk (live status,
    heartbeats, flight recorder, metrics export).  [Error] is a
    corrupt journal; an unwritable one raises [Sys_error].  Warnings
    surface a torn journal tail, which is cut before the first append. *)
