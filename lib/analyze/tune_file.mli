(** Report renderer for sweeptune's output files.

    [sweeptune explore] writes two JSONL artifacts: the journal (one
    line per evaluated (point, bench) cell, {!Sweep_tune.Journal}) and
    the frontier (one line per Pareto-optimal design point,
    {!Sweep_tune.Frontier}).  Both are read by their writers' loaders;
    this module renders them as a {!Report}: the frontier table plus one
    per-axis sensitivity section for each design-space axis, each mapped
    to the paper figure it reproduces (§6.8 Fig. 8 cache geometry, §6.6
    Tab. 2/Fig. 9 capacitor, §6.7 Fig. 10 power trace, §6.4 store cap,
    §6.9 buffer capacity / hardware cost). *)

val load :
  ?journal:string -> string -> (Report.t * string list, string) result
(** [load ?journal frontier] reads the frontier with
    {!Sweep_tune.Frontier.load} (any problem is the [Error]) and the
    optional journal with {!Sweep_tune.Journal.load}, and renders the
    frontier table, sourced as [frontier], then one sensitivity section
    per axis with at least two observed values among the journal's
    cells: cells grouped by axis value with geomean runtime and mean NVM
    writes over completed cells.  A journal that does not load is a
    warning and the report has no sensitivity sections; the journal's
    own warnings (a dropped torn final line) are passed on. *)
