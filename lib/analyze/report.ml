(* Assemble the derived views of one trace (plus optional metrics
   snapshot and results JSONL) into a report, rendered as aligned text,
   CSV, or markdown.  Each section is a small table so all three
   renderers share one structure. *)

type format = Text | Csv | Markdown

type section = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

type t = { source : string; warnings : string list; sections : section list }

(* ---------------- value formatting ---------------- *)

let fmt_ns ns =
  if Float.abs ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
  else if Float.abs ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let fmt_pct x = Printf.sprintf "%.1f%%" x
let fmt_uj j = Printf.sprintf "%.3f uJ" (j *. 1e6)
let fmt_int = string_of_int
let fmt_f g = Printf.sprintf "%g" g

(* ---------------- section builders ---------------- *)

(* Heartbeat coverage: [beats] total, and [gaps] — consecutive beats
   whose instruction delta exceeds the advertised cadence, i.e. spans
   where the run stopped beating (an overloaded sink, a wedged
   worker).  A negative delta is a new run in the same trace, not a
   gap. *)
let heartbeat_stats entries =
  let beats, gaps, _ =
    List.fold_left
      (fun (beats, gaps, prev) e ->
        match e.Trace_reader.event with
        | Sweep_obs.Event.Heartbeat { every; instructions; _ } ->
          let gaps =
            match prev with
            | Some p when instructions > p && instructions - p > every ->
              gaps + 1
            | _ -> gaps
          in
          (beats + 1, gaps, Some instructions)
        | _ -> (beats, gaps, prev))
      (0, 0, None) entries
  in
  (beats, gaps)

let trace_section path (stats : Trace_reader.stats) ~heartbeats:(beats, gaps) =
  (* Heartbeat columns only appear when the trace has beats, so
     reports of heartbeat-free traces are byte-identical to before. *)
  let hb_headers, hb_cells =
    if beats = 0 then ([], [])
    else ([ "heartbeats"; "hb gaps" ], [ fmt_int beats; fmt_int gaps ])
  in
  {
    title = "Trace";
    headers = [ "events"; "malformed"; "dropped" ] @ hb_headers;
    rows =
      [
        [ fmt_int stats.parsed; fmt_int stats.malformed; fmt_int stats.dropped ]
        @ hb_cells;
      ];
    notes =
      (Printf.sprintf "source: %s" path)
      ::
      (if stats.dropped > 0 then
         [
           Printf.sprintf
             "TRUNCATED: %d events were dropped before the trace was \
              written; every figure below is a lower bound."
             stats.dropped;
         ]
       else [])
      @
      if gaps > 0 then
        [
          Printf.sprintf
            "%d heartbeat gap(s): spans where consecutive beats are more \
             than one cadence apart."
            gaps;
        ]
      else [];
  }

let region_section (r : Region_view.t) =
  {
    title = "Regions";
    headers =
      [ "completed"; "interrupted"; "forward time"; "re-executed time";
        "forward %"; "mean"; "p50"; "p95"; "max" ];
    rows =
      [
        [
          fmt_int r.Region_view.completed;
          fmt_int r.Region_view.interrupted;
          fmt_ns r.Region_view.forward_ns;
          fmt_ns r.Region_view.wasted_ns;
          fmt_pct (100.0 *. Region_view.forward_fraction r);
          fmt_ns (Region_view.mean_latency r);
          fmt_ns (Region_view.percentile r 50.0);
          fmt_ns (Region_view.percentile r 95.0);
          fmt_ns (Region_view.percentile r 100.0);
        ];
      ];
    notes =
      [
        "interrupted = regions cut by a power failure; their time \
         re-executes after reboot (wasted work).";
      ];
  }

let stall_section (s : Stall_view.t) =
  let horizon = Stall_view.horizon_ns s in
  let pct_of ns =
    if horizon <= 0.0 then "-" else fmt_pct (100.0 *. ns /. horizon)
  in
  {
    title = "Stalls & buffer traffic";
    headers = [ "cause"; "count"; "time"; "% of horizon" ];
    rows =
      [
        [ "WAW stall (s4.3)"; fmt_int s.Stall_view.waw_stalls;
          fmt_ns s.Stall_view.waw_ns; pct_of s.Stall_view.waw_ns ];
        [ "structural wait (s3.3)"; fmt_int s.Stall_view.waits;
          fmt_ns s.Stall_view.wait_ns; pct_of s.Stall_view.wait_ns ];
        [ "buffer search (s4.4)"; fmt_int s.Stall_view.searches;
          Printf.sprintf "%s scanned/search" (fmt_f (Stall_view.avg_scanned s));
          fmt_pct (100.0 *. Stall_view.hit_rate s) ^ " hit" ];
        [ "empty-bit bypass"; fmt_int s.Stall_view.bypasses;
          fmt_pct (100.0 *. Stall_view.bypass_rate s) ^ " of misses"; "-" ];
        [ "load miss"; fmt_int s.Stall_view.load_misses; "-"; "-" ];
        [ "store miss"; fmt_int s.Stall_view.store_misses; "-"; "-" ];
        [ "writeback"; fmt_int s.Stall_view.writebacks; "-"; "-" ];
      ];
    notes =
      [ Printf.sprintf "trace horizon: %s" (fmt_ns horizon) ];
  }

let buffer_sections (b : Buffer_view.t) =
  let per_buf =
    {
      title = "Persist-buffer occupancy";
      headers =
        [ "buffer"; "cycles"; "fill"; "flush (s-p1)"; "drain (s-p2)";
          "busy"; "dead time" ];
      rows =
        List.map
          (fun pb ->
            [
              fmt_int pb.Buffer_view.buf;
              fmt_int pb.Buffer_view.cycles;
              fmt_ns pb.Buffer_view.fill_ns;
              fmt_ns pb.Buffer_view.flush_ns;
              fmt_ns pb.Buffer_view.drain_ns;
              fmt_ns (Buffer_view.busy_ns pb);
              fmt_ns pb.Buffer_view.dead_ns;
            ])
          b.Buffer_view.buffers;
      notes =
        [
          Printf.sprintf
            "region-level parallelism: %s with >=2 buffers busy (union busy %s)"
            (fmt_ns b.Buffer_view.overlap_ns)
            (fmt_ns b.Buffer_view.busy_union_ns);
        ];
    }
  in
  let hist = Buffer_view.dead_time_histogram b in
  let dead_hist =
    {
      title = "Phase dead-time histogram";
      headers = [ "gap <="; "gaps" ];
      rows =
        List.map
          (fun (bound, n) ->
            [ (if bound = infinity then "+inf" else fmt_ns bound); fmt_int n ])
          hist;
      notes =
        [ "gap = one buffer's drain end to its next fill start." ];
    }
  in
  [ per_buf; dead_hist ]

let power_sections (p : Power_view.t) (r : Region_view.t)
    (results : Results_file.record list option) =
  let outages =
    {
      title = "Outages & recovery";
      headers = [ "quantity"; "value" ];
      rows =
        [
          [ "power-downs"; fmt_int p.Power_view.power_downs ];
          [ "hard deaths"; fmt_int p.Power_view.deaths ];
          [ "reboots"; fmt_int p.Power_view.reboots ];
          [ "off time"; fmt_ns p.Power_view.off_ns ];
          [ "backups ok / failed";
            Printf.sprintf "%d / %d" p.Power_view.backups_ok
              p.Power_view.backups_failed ];
          [ "backup energy"; fmt_uj p.Power_view.backup_joules ];
          [ "restores"; fmt_int p.Power_view.restores ];
          [ "restore energy"; fmt_uj p.Power_view.restore_joules ];
          [ "replayed stores"; fmt_int p.Power_view.replayed_stores ];
          [ "backup lines"; fmt_int p.Power_view.backup_lines ];
        ]
        @ (if p.Power_view.injected_faults = 0 then []
           else
             (* Fault-injection attribution (sweepcheck): keep these rows
                out of ordinary reports so existing output stays stable. *)
             [
               [ "injected faults";
                 Printf.sprintf "%d (%d nested)" p.Power_view.injected_faults
                   p.Power_view.nested_faults ];
               [ "torn DMA lines";
                 Printf.sprintf "%d (%d words)" p.Power_view.torn_lines
                   p.Power_view.torn_words ];
               [ "stuck phase bits"; fmt_int p.Power_view.stuck_bits ];
             ]);
      notes = [];
    }
  in
  let recovery =
    {
      title = "Recovery cases (s4.2)";
      headers = [ "case"; "meaning"; "buffers"; "lines" ];
      rows =
        [
          [ "(0,0)"; "s-phase1 incomplete: discard";
            fmt_int p.Power_view.discarded_buffers;
            fmt_int p.Power_view.discarded_lines ];
          [ "(1,0)"; "s-phase2 incomplete: redo drain";
            fmt_int p.Power_view.redo_buffers;
            fmt_int p.Power_view.redo_lines ];
          [ "(1,1)"; "all drained: clean reboot";
            fmt_int p.Power_view.clean_reboots; "-" ];
        ];
      notes = [];
    }
  in
  let wasted_frac = 1.0 -. Region_view.forward_fraction r in
  let energy_rows =
    [
      [ "forward-progress time"; fmt_ns r.Region_view.forward_ns ];
      [ "re-executed (wasted) time"; fmt_ns r.Region_view.wasted_ns ];
      [ "backup + restore energy";
        fmt_uj (p.Power_view.backup_joules +. p.Power_view.restore_joules) ];
    ]
    @
    match results with
    | None -> []
    | Some records ->
      let compute =
        List.fold_left
          (fun acc rec_ ->
            acc
            +. Option.value ~default:0.0
                 (List.assoc_opt "compute_joules" rec_.Results_file.metrics))
          0.0 records
      in
      [
        [ "compute energy (results)"; fmt_uj compute ];
        [ "est. wasted compute energy"; fmt_uj (compute *. wasted_frac) ];
      ]
  in
  let energy =
    {
      title = "Forward progress vs wasted work";
      headers = [ "quantity"; "value" ];
      rows = energy_rows;
      notes =
        (if results = None then
           [
             "pass --results <file.jsonl> to split the run's measured \
              compute energy by these fractions.";
           ]
         else []);
    }
  in
  [ outages; recovery; energy ]

let results_section records =
  {
    title = "Run results (JSONL)";
    headers = [ "key"; "total"; "energy"; "instrs"; "nvm writes"; "miss %" ];
    rows =
      List.map
        (fun r ->
          let m k = List.assoc_opt k r.Results_file.metrics in
          let num f = function Some v -> f v | None -> "-" in
          [
            r.Results_file.key;
            num fmt_ns (m "total_ns");
            num fmt_uj (m "total_joules");
            num (fun v -> fmt_int (int_of_float v)) (m "instructions");
            num (fun v -> fmt_int (int_of_float v)) (m "nvm_writes");
            num (fun v -> fmt_pct (100.0 *. v)) (m "miss_rate");
          ])
        records;
    notes = [];
  }

(* Supervision + result-cache activity (supervised `--workers N` runs).
   The section only appears when the trace carries any of these events,
   so reports of single-process traces stay byte-identical. *)
let supervision_section entries =
  let spawns, deads, retries, hits =
    List.fold_left
      (fun (s, d, r, h) e ->
        match e.Trace_reader.event with
        | Sweep_obs.Event.Worker_spawn _ -> (s + 1, d, r, h)
        | Sweep_obs.Event.Worker_dead _ -> (s, d + 1, r, h)
        | Sweep_obs.Event.Job_retry _ -> (s, d, r + 1, h)
        | Sweep_obs.Event.Cache_hit _ -> (s, d, r, h + 1)
        | _ -> (s, d, r, h))
      (0, 0, 0, 0) entries
  in
  if spawns = 0 && deads = 0 && retries = 0 && hits = 0 then []
  else
    [
      {
        title = "Supervision & result cache";
        headers = [ "quantity"; "value" ];
        rows =
          [
            [ "worker spawns"; fmt_int spawns ];
            [ "worker deaths"; fmt_int deads ];
            [ "job retries"; fmt_int retries ];
            [ "result-cache hits"; fmt_int hits ];
          ];
        notes =
          (if deads > spawns then
             [ "more deaths than spawns: trace is truncated or merged." ]
           else []);
      };
    ]

let metrics_section (m : Sweep_obs.Metrics.snapshot) =
  {
    title = "Metrics snapshot";
    headers = [ "series"; "value" ];
    rows =
      List.map
        (fun (name, s) ->
          [
            name;
            (match s with
            | Sweep_obs.Metrics.Count n -> fmt_int n
            | Value v -> fmt_f v
            | Histo { count; sum; _ } ->
              Printf.sprintf "count=%d sum=%g mean=%g" count sum
                (if count = 0 then 0.0 else sum /. float_of_int count));
          ])
        m;
    notes = [];
  }

(* ---------------- assembly ---------------- *)

let build ?metrics_path ?results_path ~trace_path () =
  match Trace_reader.read_all trace_path with
  | Error e -> Error e
  | Ok (entries, stats) ->
    if stats.Trace_reader.parsed = 0 then
      Error
        (Printf.sprintf
           "%s: no events parsed (%d malformed lines) — is this a JSONL \
            trace (sweepsim --trace-format jsonl)?"
           trace_path stats.Trace_reader.malformed)
    else begin
      let regions = Region_view.of_entries entries in
      let stalls = Stall_view.of_entries entries in
      let buffers = Buffer_view.of_entries entries in
      let power = Power_view.of_entries entries in
      let results = Option.map Results_file.load results_path in
      let metrics = Option.map Sweep_obs.Metrics.load metrics_path in
      let warnings =
        (if stats.Trace_reader.dropped > 0 then
           [
             Printf.sprintf "trace truncated: %d events dropped"
               stats.Trace_reader.dropped;
           ]
         else [])
        @ (if stats.Trace_reader.malformed > 0 then
             [
               Printf.sprintf "%d malformed trace lines skipped"
                 stats.Trace_reader.malformed;
             ]
           else [])
        @ (match results with
          | Some (Error e) -> [ "results not loaded: " ^ e ]
          | _ -> [])
        @
        match metrics with
        | Some (Error e) -> [ "metrics not loaded: " ^ e ]
        | _ -> []
      in
      let results_ok =
        match results with Some (Ok r) -> Some r | _ -> None
      in
      let sections =
        [ trace_section trace_path stats ~heartbeats:(heartbeat_stats entries);
          region_section regions; stall_section stalls ]
        @ buffer_sections buffers
        @ power_sections power regions results_ok
        @ supervision_section entries
        @ (match results_ok with
          | Some r -> [ results_section r ]
          | None -> [])
        @
        match metrics with
        | Some (Ok m) -> [ metrics_section m ]
        | _ -> []
      in
      Ok { source = trace_path; warnings; sections }
    end

(* ---------------- rendering ---------------- *)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_text t =
  let b = Buffer.create 4096 in
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "WARNING: %s\n" w))
    t.warnings;
  List.iter
    (fun sec ->
      Buffer.add_string b (Printf.sprintf "\n== %s ==\n" sec.title);
      let table = sec.headers :: sec.rows in
      let cols =
        List.fold_left (fun acc row -> max acc (List.length row)) 0 table
      in
      let width = Array.make cols 0 in
      List.iter
        (List.iteri (fun i cell ->
             width.(i) <- max width.(i) (String.length cell)))
        table;
      let pad i cell =
        cell ^ String.make (max 0 (width.(i) - String.length cell)) ' '
      in
      List.iteri
        (fun ri row ->
          Buffer.add_string b "  ";
          (* pad for alignment but keep line endings clean *)
          let line = String.concat "  " (List.mapi pad row) in
          let n = ref (String.length line) in
          while !n > 0 && line.[!n - 1] = ' ' do decr n done;
          Buffer.add_string b (String.sub line 0 !n);
          Buffer.add_char b '\n';
          if ri = 0 then begin
            Buffer.add_string b "  ";
            Buffer.add_string b
              (String.concat "  "
                 (List.mapi (fun i _ -> String.make width.(i) '-') row));
            Buffer.add_char b '\n'
          end)
        table;
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "  %s\n" n))
        sec.notes)
    t.sections;
  Buffer.contents b

let render_csv t =
  let b = Buffer.create 4096 in
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "# WARNING: %s\n" w))
    t.warnings;
  List.iter
    (fun sec ->
      Buffer.add_string b (Printf.sprintf "# %s\n" sec.title);
      List.iter
        (fun row ->
          Buffer.add_string b (String.concat "," (List.map csv_cell row));
          Buffer.add_char b '\n')
        (sec.headers :: sec.rows);
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "# %s\n" n))
        sec.notes;
      Buffer.add_char b '\n')
    t.sections;
  Buffer.contents b

let md_cell s =
  String.concat "\\|" (String.split_on_char '|' s)

let render_markdown t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "# Report — %s\n" t.source);
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "\n> **Warning:** %s\n" w))
    t.warnings;
  List.iter
    (fun sec ->
      Buffer.add_string b (Printf.sprintf "\n## %s\n\n" sec.title);
      let row cells =
        "| " ^ String.concat " | " (List.map md_cell cells) ^ " |\n"
      in
      Buffer.add_string b (row sec.headers);
      Buffer.add_string b
        ("|" ^ String.concat "|" (List.map (fun _ -> "---") sec.headers)
       ^ "|\n");
      List.iter (fun r -> Buffer.add_string b (row r)) sec.rows;
      List.iter
        (fun n -> Buffer.add_string b (Printf.sprintf "\n%s\n" n))
        sec.notes)
    t.sections;
  Buffer.contents b

let render = function
  | Text -> render_text
  | Csv -> render_csv
  | Markdown -> render_markdown

let format_of_string = function
  | "text" -> Some Text
  | "csv" -> Some Csv
  | "md" | "markdown" -> Some Markdown
  | _ -> None
