module Jobs = Sweep_exp.Jobs
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module Metrics = Sweep_obs.Metrics
module Event = Sweep_obs.Event
module Sink = Sweep_obs.Sink
module Rng = Sweep_util.Rng

type strategy = Grid | Random | Halving

let strategy_name = function
  | Grid -> "grid"
  | Random -> "random"
  | Halving -> "halving"

let strategy_of_name = function
  | "grid" -> Some Grid
  | "random" -> Some Random
  | "halving" -> Some Halving
  | _ -> None

type params = {
  space : Space.t;
  strategy : strategy;
  budget : int;
  seed : int;
  scale : float;
  ladder : string list list;
  early_stop : float option;
}

let default_ladder =
  [ [ "sha" ]; [ "dijkstra"; "fft" ]; [ "adpcmdec"; "gsmdec"; "susans" ] ]

let default_params =
  {
    space = Space.default;
    strategy = Halving;
    budget = 200;
    seed = 42;
    scale = 0.2;
    ladder = default_ladder;
    early_stop = None;
  }

type outcome = {
  frontier : Frontier.t;
  tier : int;
  tier_benches : string list;
  tier_points : int;
  scheduled : int;
  executed : int;
  cached : int;
  failed_points : (Space.point * string) list;
}

exception Interrupted of { executed : int }

let m_scheduled = Metrics.counter "tune.cells_scheduled"
let m_executed = Metrics.counter "tune.cells_executed"
let m_cached = Metrics.counter "tune.cells_cached"
let m_pruned = Metrics.counter "tune.cells_pruned"
let m_rounds = Metrics.counter "tune.rounds"
let m_failed = Metrics.counter "tune.points_failed"
let m_frontier = Metrics.gauge "tune.frontier_size"
let wall_ns () = Unix.gettimeofday () *. 1e9

(* The ladder every strategy actually walks: [Halving] climbs the rungs,
   [Grid]/[Random] run the flattened ladder as a single rung.  Benches
   repeated across rungs are dropped — each rung lists only its fresh
   benches. *)
let rungs params =
  let dedup benches =
    List.fold_left
      (fun acc b -> if List.mem b acc then acc else acc @ [ b ])
      [] benches
  in
  match params.strategy with
  | Grid | Random -> [ dedup (List.concat params.ladder) ]
  | Halving ->
      let seen = ref [] in
      List.filter_map
        (fun rung ->
          let fresh =
            List.filter (fun b -> not (List.mem b !seen)) (dedup rung)
          in
          seen := !seen @ fresh;
          if fresh = [] then None else Some fresh)
        params.ladder

let initial_candidates params =
  let pts = Space.points params.space in
  match params.strategy with
  | Grid | Halving -> pts
  | Random ->
      let arr = Array.of_list pts in
      Rng.shuffle (Rng.create params.seed) arr;
      Array.to_list arr

let plan params =
  let rungs = rungs params in
  let cands = initial_candidates params in
  match params.strategy with
  | Grid | Random ->
      let per_point =
        match rungs with [ benches ] -> List.length benches | _ -> 1
      in
      let afford = if per_point = 0 then 0 else params.budget / per_point in
      let n = min afford (List.length cands) in
      (List.filteri (fun i _ -> i < n) cands, n * per_point)
  | Halving ->
      (* Worst case: every candidate survives every promotion until the
         budget runs dry. *)
      (cands, min params.budget (List.length cands * List.length (List.concat rungs)))

(* ------------------------------------------------------------------ *)
(* Evaluation context: journal-backed cell cache + budget accounting.  *)

type ctx = {
  params : params;
  cells : (string, Journal.cell) Hashtbl.t; (* job key -> result *)
  log : Sweep_util.Durable.log;
  workers : int option;
  kill_after : int option;
  exec_config : Executor.config option;
  mutable scheduled : int;
  mutable executed : int;
  mutable cached : int;
  mutable round : int;
  scheduled_keys : (string, unit) Hashtbl.t;
}

let cell_key ctx p bench = Jobs.key (Space.job ~scale:ctx.params.scale p bench)

(* Journal checkpoint granularity: cells executed between journal
   flushes.  Large enough to keep the domain pool busy, small enough
   that a crash forfeits little work. *)
let chunk_cells = 16

let remaining ctx = ctx.params.budget - ctx.scheduled

(* Evaluate points x benches.  Points are re-sorted canonically so the
   journal (and every event stream) is independent of promotion order;
   cells already journalled are charged to the budget but not re-run. *)
let evaluate ctx points benches =
  let points = List.sort Space.compare points in
  let cells =
    List.concat_map
      (fun p -> List.map (fun b -> (p, b, cell_key ctx p b)) benches)
      points
  in
  ctx.round <- ctx.round + 1;
  if Metrics.enabled () then Metrics.inc m_rounds;
  if Sink.on () then
    Sink.emit ~ns:(wall_ns ())
      (Event.Tune_round
         {
           strategy = strategy_name ctx.params.strategy;
           round = ctx.round;
           points = List.length points;
           benches = List.length benches;
         });
  let missing =
    List.filter (fun (_, _, key) -> not (Hashtbl.mem ctx.cells key)) cells
  in
  let n_missing = List.length missing in
  ctx.scheduled <- ctx.scheduled + List.length cells;
  ctx.cached <- ctx.cached + (List.length cells - n_missing);
  if Metrics.enabled () then begin
    Metrics.add m_scheduled (List.length cells);
    Metrics.add m_cached (List.length cells - n_missing)
  end;
  (* Execute in canonical-order chunks, journalling after each, so a
     crash mid-rung loses at most one chunk and [kill_after] has chunk
     (not rung) granularity. *)
  let record budgets (p, bench, key) =
    let cell =
      match Results.find key with
      | Some s ->
          let completed = s.Results.outcome.Sweep_sim.Driver.completed in
          let error =
            match (completed, List.assoc_opt key budgets) with
            | false, Some b ->
                if Metrics.enabled () then Metrics.inc m_pruned;
                if Sink.on () then
                  Sink.emit ~ns:(wall_ns ())
                    (Event.Tune_prune { key; budget_ns = b });
                Printf.sprintf "early-stopped: dominated at %.17g ns budget" b
            | _ -> ""
          in
          {
            Journal.point = p;
            bench;
            scale = ctx.params.scale;
            key;
            runtime_ns = Sweep_sim.Driver.total_ns s.Results.outcome;
            nvm_writes = s.Results.nvm_writes;
            completed;
            failed = false;
            error;
          }
      | None ->
          let error =
            match
              List.find_opt
                (fun f -> f.Results.key = key)
                (Results.failures ())
            with
            | Some f -> f.Results.error
            | None -> "no result recorded"
          in
          {
            Journal.point = p;
            bench;
            scale = ctx.params.scale;
            key;
            runtime_ns = 0.0;
            nvm_writes = 0;
            completed = false;
            failed = true;
            error;
          }
    in
    Sweep_util.Durable.append ctx.log (Journal.line cell);
    Hashtbl.replace ctx.cells key cell
  in
  (* Early-stop budgets are frozen per chunk from journalled state only
     (best completed runtime per bench over [ctx.cells]), so they are
     identical across worker counts and kill/resume: within a chunk no
     cell's budget depends on another cell of the same chunk, and the
     journal advances in whole canonical chunks. *)
  let chunk_budgets chunk =
    match ctx.params.early_stop with
    | None -> []
    | Some margin ->
        let best = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ c ->
            if c.Journal.completed && not c.Journal.failed then
              match Hashtbl.find_opt best c.Journal.bench with
              | Some b when b <= c.Journal.runtime_ns -> ()
              | _ -> Hashtbl.replace best c.Journal.bench c.Journal.runtime_ns)
          ctx.cells;
        List.filter_map
          (fun (_, b, key) ->
            Option.map
              (fun best_ns -> (key, margin *. best_ns))
              (Hashtbl.find_opt best b))
          chunk
  in
  let rec chunks = function
    | [] -> ()
    | rest ->
        let chunk = List.filteri (fun i _ -> i < chunk_cells) rest in
        let rest = List.filteri (fun i _ -> i >= chunk_cells) rest in
        let budgets = chunk_budgets chunk in
        Executor.execute ?workers:ctx.workers ?config:ctx.exec_config
          ~budget:(fun j -> List.assoc_opt (Jobs.key j) budgets)
          (List.map
             (fun (p, b, _) -> Space.job ~scale:ctx.params.scale p b)
             chunk);
        List.iter (record budgets) chunk;
        ctx.executed <- ctx.executed + List.length chunk;
        if Metrics.enabled () then Metrics.add m_executed (List.length chunk);
        (match ctx.kill_after with
        | Some n when n >= 0 && ctx.executed >= n ->
            raise (Interrupted { executed = ctx.executed })
        | _ -> ());
        chunks rest
  in
  chunks missing;
  List.iter
    (fun (_, _, key) ->
      Hashtbl.replace ctx.scheduled_keys key ();
      let cached = not (List.exists (fun (_, _, k) -> k = key) missing) in
      if Sink.on () then
        Sink.emit ~ns:(wall_ns ()) (Event.Tune_eval { key; cached }))
    cells

(* ------------------------------------------------------------------ *)
(* Objectives and Pareto ranking over evaluated cells.                 *)

let geomean = function
  | [] -> 0.0
  | xs ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

(* [Ok objs] when every (point, bench) cell succeeded; [Error why]
   carries the first failure (benches in ladder order). *)
let point_result ctx p benches =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | b :: rest -> (
        match Hashtbl.find_opt ctx.cells (cell_key ctx p b) with
        | None -> Error (Printf.sprintf "%s: not evaluated" b)
        | Some c when c.Journal.failed ->
            Error (Printf.sprintf "%s: %s" b c.Journal.error)
        | Some c when not c.Journal.completed ->
            let why =
              if c.Journal.error <> "" then c.Journal.error
              else "did not complete"
            in
            Error (Printf.sprintf "%s: %s" b why)
        | Some c -> collect (c :: acc) rest)
  in
  match collect [] benches with
  | Error _ as e -> e
  | Ok cells ->
      let runtimes = List.map (fun c -> c.Journal.runtime_ns) cells in
      let writes =
        List.fold_left (fun acc c -> acc +. float_of_int c.Journal.nvm_writes) 0.0 cells
      in
      Ok
        {
          Frontier.runtime_ns = geomean runtimes;
          nvm_writes = writes;
          hw_bits = Space.hw_bits p;
        }

(* Pareto ranks by frontier peeling: rank 0 is the frontier of the set,
   rank 1 the frontier of the remainder, and so on. *)
let pareto_ranks entries =
  let rec peel rank acc = function
    | [] -> acc
    | pool ->
        let front, rest =
          List.partition
            (fun (_, objs) ->
              not
                (List.exists
                   (fun (_, objs') -> Frontier.dominates objs' objs)
                   pool))
            pool
        in
        (* A pool of mutually-dominating duplicates cannot occur (objs
           include distinct hw bits), but guard against looping. *)
        let front, rest = if front = [] then (pool, []) else (front, rest) in
        peel (rank + 1)
          (acc @ List.map (fun (p, objs) -> (rank, p, objs)) front)
          rest
  in
  peel 0 [] entries

(* Successive-halving promotion: keep every rank-0 point, topped up to
   half the field by (rank, runtime, writes, point) order. *)
let promote ranked =
  let ordered =
    List.sort
      (fun (ra, pa, oa) (rb, pb, ob) ->
        let c = Stdlib.compare ra rb in
        if c <> 0 then c
        else
          let c = Float.compare oa.Frontier.runtime_ns ob.Frontier.runtime_ns in
          if c <> 0 then c
          else
            let c = Float.compare oa.Frontier.nvm_writes ob.Frontier.nvm_writes in
            if c <> 0 then c else Space.compare pa pb)
      ranked
  in
  let n = List.length ordered in
  let rank0 = List.length (List.filter (fun (r, _, _) -> r = 0) ordered) in
  let keep = max rank0 ((n + 1) / 2) in
  List.filteri (fun i _ -> i < keep) ordered
  |> List.map (fun (_, p, _) -> p)

let survivors ctx cands covered =
  List.filter_map
    (fun p ->
      match point_result ctx p covered with
      | Ok objs -> Some (p, objs)
      | Error _ -> None)
    cands

(* ------------------------------------------------------------------ *)

let failed_points ctx =
  Hashtbl.fold
    (fun key cell acc ->
      if
        Hashtbl.mem ctx.scheduled_keys key
        && (cell.Journal.failed || not cell.Journal.completed)
      then
        let err =
          if cell.Journal.failed || cell.Journal.error <> "" then
            Printf.sprintf "%s: %s" cell.Journal.bench cell.Journal.error
          else Printf.sprintf "%s: did not complete" cell.Journal.bench
        in
        (cell.Journal.point, err) :: acc
      else acc)
    ctx.cells []
  |> List.sort (fun (pa, ea) (pb, eb) ->
         let c = Space.compare pa pb in
         if c <> 0 then c else Stdlib.compare ea eb)
  |> List.fold_left
       (fun acc (p, e) ->
         match acc with
         | (p', _) :: _ when Space.compare p p' = 0 -> acc
         | _ -> (p, e) :: acc)
       []
  |> List.rev

let search ctx =
  let rungs = rungs ctx.params in
  let n_rungs = List.length rungs in
  let rec go k cands covered =
    if k >= n_rungs then (k - 1, cands, covered)
    else
      let fresh = List.nth rungs k in
      let cost = List.length fresh in
      let cands =
        if k = 0 then cands
        else
          promote
            (pareto_ranks (survivors ctx cands covered))
      in
      let afford = if cost = 0 then List.length cands else remaining ctx / cost in
      let n = min afford (List.length cands) in
      let cands = List.filteri (fun i _ -> i < n) cands in
      if cands = [] then (k - 1, [], covered)
      else begin
        evaluate ctx cands fresh;
        let covered = covered @ fresh in
        go (k + 1) cands covered
      end
  in
  let tier, cands, covered = go 0 (initial_candidates ctx.params) [] in
  let tier_benches = List.sort Stdlib.compare covered in
  let entries =
    if covered = [] then []
    else
      (* Recompute survivors at the final coverage: go's [cands] at an
         early-stop tier is the truncated-to-empty list, so fall back to
         every point evaluated on all covered benches. *)
      let pool =
        if cands <> [] then cands
        else
          Hashtbl.fold
            (fun _ c acc ->
              if List.exists (fun p -> Space.compare p c.Journal.point = 0) acc
              then acc
              else c.Journal.point :: acc)
            ctx.cells []
      in
      survivors ctx pool tier_benches
      |> List.map (fun (p, objs) ->
             { Frontier.point = p; benches = tier_benches; objs })
  in
  let frontier = Frontier.of_entries entries in
  if Metrics.enabled () then begin
    Metrics.set m_frontier (float_of_int (Frontier.size frontier));
    Metrics.add m_failed (List.length (failed_points ctx))
  end;
  if Sink.on () then
    Sink.emit ~ns:(wall_ns ())
      (Event.Tune_frontier
         { size = Frontier.size frontier; evals = ctx.scheduled });
  {
    frontier;
    tier;
    tier_benches;
    tier_points = List.length entries;
    scheduled = ctx.scheduled;
    executed = ctx.executed;
    cached = ctx.cached;
    failed_points = failed_points ctx;
  }

let run ?workers ?kill_after ?exec_config ~journal params =
  match Journal.load journal with
  | Error e -> Error e
  | Ok (cells0, warnings) ->
      let cells = Hashtbl.create 256 in
      List.iter
        (fun c ->
          if not (Hashtbl.mem cells c.Journal.key) then
            Hashtbl.add cells c.Journal.key c)
        cells0;
      Sweep_util.Durable.with_log journal (fun log ->
          let ctx =
            {
              params;
              cells;
              log;
              workers;
              kill_after;
              exec_config;
              scheduled = 0;
              executed = 0;
              cached = 0;
              round = 0;
              scheduled_keys = Hashtbl.create 256;
            }
          in
          Ok (search ctx, warnings))
