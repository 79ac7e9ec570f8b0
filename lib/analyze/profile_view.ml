(* Renderer for the per-PC attribution profiles that
   [sweepsim --attrib] / [sweepexp --attrib-dir] write and
   Sweep_sim.Profile reads back: print top-N and per-function /
   per-opcode breakdowns, and diff two profiles through the generic
   Diff machinery with a profile-specific direction map (time, energy,
   wear, and re-execution are all lower-better; retirement counts are
   informational). *)

module Table = Sweep_util.Table
module Profile = Sweep_sim.Profile
module Attrib = Sweep_obs.Attrib

open Profile

(* ---------------- derived metrics ---------------- *)

let row_time r = r.ns +. r.ckpt_ns +. r.stall_ns
let row_energy r = r.joules +. r.backup_joules +. r.restore_joules
let row_wear r = r.nvm_writes + r.ckpt_nvm_writes

(* ---------------- rendering ---------------- *)

let pct part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole

let summary_text t =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  let tt = t.totals in
  let ident =
    List.filter
      (fun s -> s <> "")
      [
        (if t.bench = "" then "" else Printf.sprintf "bench=%s" t.bench);
        (if t.design = "" then "" else Printf.sprintf "design=%s" t.design);
        Printf.sprintf "scale=%g" t.scale;
        (if t.key = "" then "" else Printf.sprintf "key=%s" t.key);
      ]
  in
  line "profile  %s" (String.concat "  " ident);
  line "instructions  %d retired = %d forward + %d re-executed (%.2f%%), %d crash(es)"
    tt.Attrib.t_instructions (tt.t_instructions - tt.t_reexec) tt.t_reexec
    (pct (float_of_int tt.t_reexec) (float_of_int tt.t_instructions))
    tt.t_crashes;
  line "time          %.0f ns executing (%.0f ns of it stalled) + %.0f ns checkpoint/restore"
    tt.t_ns tt.t_stall_ns tt.t_ckpt_ns;
  line "energy        %.4g J compute + %.4g J backup + %.4g J restore"
    tt.t_joules tt.t_backup_joules tt.t_restore_joules;
  line "NVM writes    %d program + %d checkpoint;  cache misses %d"
    tt.t_nvm_writes tt.t_ckpt_nvm_writes tt.t_cache_misses;
  Buffer.contents b

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n l

(* One top-N table: rows sorted descending on [metric] (PC ascending
   breaks ties so output is deterministic), with each row's share and
   the running cumulative share of the whole-run total. *)
let top_table ~title ~top ~metric ~fmt ~total t =
  let rows =
    List.filter (fun r -> metric r > 0.0) t.rows
    |> List.stable_sort (fun a b ->
           match compare (metric b) (metric a) with
           | 0 -> compare a.pc b.pc
           | c -> c)
    |> take top
  in
  if rows = [] then Printf.sprintf "%s: nothing charged\n" title
  else begin
    let tbl =
      Table.create [ "pc"; "func"; "label+off"; "op"; title; "%"; "cum%" ]
    in
    let cum = ref 0.0 in
    List.iter
      (fun r ->
        let v = metric r in
        cum := !cum +. v;
        Table.add_row tbl
          [
            string_of_int r.pc;
            r.func;
            Printf.sprintf "%s+%d" r.label r.label_off;
            r.op;
            fmt v;
            Printf.sprintf "%.1f" (pct v total);
            Printf.sprintf "%.1f" (pct !cum total);
          ])
      rows;
    Printf.sprintf "top %d by %s\n%s" (List.length rows) title
      (Table.render tbl)
  end

(* Group rows under [group_of] and print each group's share of time,
   energy, wear, and re-execution — the per-view breakdown ISSUE's
   "where does it go" question wants answered at function and opcode
   granularity. *)
let rollup_table ~title ~group_of t =
  let tt = t.totals in
  let tbl : (string, float array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = group_of r in
      let acc =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
          let a = Array.make 5 0.0 in
          Hashtbl.replace tbl key a;
          a
      in
      acc.(0) <- acc.(0) +. float_of_int r.count;
      acc.(1) <- acc.(1) +. row_time r;
      acc.(2) <- acc.(2) +. row_energy r;
      acc.(3) <- acc.(3) +. float_of_int (row_wear r);
      acc.(4) <- acc.(4) +. float_of_int r.reexec)
    t.rows;
  let groups =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.stable_sort (fun (ka, a) (kb, b) ->
           match compare b.(1) a.(1) with 0 -> compare ka kb | c -> c)
  in
  let total_time = tt.t_ns +. tt.t_stall_ns +. tt.t_ckpt_ns in
  let total_energy = tt.t_joules +. tt.t_backup_joules +. tt.t_restore_joules in
  let out =
    Table.create
      [ title; "instrs"; "time%"; "energy%"; "nvm-writes"; "reexec" ]
  in
  List.iter
    (fun (k, a) ->
      Table.add_row out
        [
          k;
          Printf.sprintf "%.0f" a.(0);
          Printf.sprintf "%.1f" (pct a.(1) total_time);
          Printf.sprintf "%.1f" (pct a.(2) total_energy);
          Printf.sprintf "%.0f" a.(3);
          Printf.sprintf "%.0f" a.(4);
        ])
    groups;
  Printf.sprintf "by %s\n%s" title (Table.render out)

let render_report ?(top = 10) t =
  let tt = t.totals in
  let sections =
    [
      summary_text t;
      top_table ~title:"time (ns)" ~top
        ~metric:row_time
        ~fmt:(Printf.sprintf "%.0f")
        ~total:(tt.t_ns +. tt.t_stall_ns +. tt.t_ckpt_ns)
        t;
      top_table ~title:"energy (J)" ~top ~metric:row_energy
        ~fmt:(Printf.sprintf "%.4g")
        ~total:(tt.t_joules +. tt.t_backup_joules +. tt.t_restore_joules)
        t;
      top_table ~title:"nvm writes" ~top
        ~metric:(fun r -> float_of_int (row_wear r))
        ~fmt:(Printf.sprintf "%.0f")
        ~total:(float_of_int (tt.t_nvm_writes + tt.t_ckpt_nvm_writes))
        t;
      top_table ~title:"re-executed instrs" ~top
        ~metric:(fun r -> float_of_int r.reexec)
        ~fmt:(Printf.sprintf "%.0f")
        ~total:(float_of_int tt.t_reexec) t;
      rollup_table ~title:"function" ~group_of:(fun r -> r.func) t;
      rollup_table ~title:"opcode" ~group_of:(fun r -> r.op) t;
    ]
  in
  String.concat "\n" sections

(* ---------------- diff ---------------- *)

(* Retirement counts are structural (two correct designs legitimately
   differ); every cost series is lower-better. *)
let direction = function
  | "count" | "forward" | "instructions" -> `Info
  | _ -> `Lower_better

let row_series r =
  [
    ("count", float_of_int r.count);
    ("forward", float_of_int r.forward);
    ("reexec", float_of_int r.reexec);
    ("crashes", float_of_int r.crashes);
    ("ns", r.ns);
    ("stall_ns", r.stall_ns);
    ("joules", r.joules);
    ("backup_joules", r.backup_joules);
    ("restore_joules", r.restore_joules);
    ("ckpt_ns", r.ckpt_ns);
    ("nvm_writes", float_of_int r.nvm_writes);
    ("ckpt_nvm_writes", float_of_int r.ckpt_nvm_writes);
    ("cache_misses", float_of_int r.cache_misses);
  ]

let totals_series (tt : Attrib.totals) =
  [
    ("instructions", float_of_int tt.t_instructions);
    ("forward", float_of_int (tt.t_instructions - tt.t_reexec));
    ("reexec", float_of_int tt.t_reexec);
    ("crashes", float_of_int tt.t_crashes);
    ("ns", tt.t_ns);
    ("stall_ns", tt.t_stall_ns);
    ("joules", tt.t_joules);
    ("backup_joules", tt.t_backup_joules);
    ("restore_joules", tt.t_restore_joules);
    ("ckpt_ns", tt.t_ckpt_ns);
    ("nvm_writes", float_of_int tt.t_nvm_writes);
    ("ckpt_nvm_writes", float_of_int tt.t_ckpt_nvm_writes);
    ("cache_misses", float_of_int tt.t_cache_misses);
  ]

(* PC + opcode identifies an instruction site; if the two profiles come
   from different compilations the keys simply fail to line up and Diff
   reports them as missing/new rather than comparing unrelated PCs.
   The "totals" pseudo-key always lines up, so even profiles of
   different programs get a whole-run verdict. *)
let to_run t =
  ("totals", totals_series t.totals)
  :: List.map
       (fun r -> (Printf.sprintf "pc%d:%s" r.pc r.op, row_series r))
       t.rows

let diff ?(threshold_pct = 0.5) a b =
  Diff.compare_runs ~direction ~threshold_pct (to_run a) (to_run b)

let diff_files ?threshold_pct a_path b_path =
  match (load a_path, load b_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok a, Ok b -> diff ?threshold_pct a b
