(* sweepcheck: differential crash-consistency validation (§4.2).

     dune exec bin/sweepcheck.exe -- sweep                 # 9-job matrix, all designs
     dune exec bin/sweepcheck.exe -- sweep --stride 40 -j 4
     dune exec bin/sweepcheck.exe -- sweep --designs sweep,nvsram --mutate skip-restore
     dune exec bin/sweepcheck.exe -- fuzz --seed 7 --count 25 -o shrunk.txt

   [sweep] places crashes (exhaustively or strided) across every
   instruction of every (design, workload) cell, plus targeted points
   inside phase-2 flush and phase-3 DMA windows and nested
   crash-during-recovery points, and checks each recovered run against
   the golden-execution oracle.  Exit 1 on any divergence.

   [--mutate] deliberately breaks one recovery invariant so the sweep
   MUST go red — a true-positive check proving the checker is not
   silently green.  With a mutation the exit code is inverted: finding
   divergences is the pass.

   [fuzz] runs seeded random programs through the same checker and
   shrinks any failing case to a minimal program + crash point. *)

open Cmdliner
module Check = Sweep_check.Check
module Progen = Sweep_check.Progen
module H = Sweep_sim.Harness
module FM = Sweep_machine.Fault_model

let design_of_string s =
  let s = String.lowercase_ascii s in
  match s with
  | "nvp" -> Some H.Nvp
  | "wt" | "wt-vcache" -> Some H.Wt
  | "nvsram" -> Some H.Nvsram
  | "nvsram-e" | "nvsrame" -> Some H.Nvsram_e
  | "replay" | "replaycache" -> Some H.Replay
  | "nvmr" -> Some H.Nvmr
  | "sweep" | "sweepcache" -> Some H.Sweep
  | _ -> None

let mutate_of_string = function
  | "skip-restore" -> Some { FM.none with FM.skip_restore = true }
  | "stuck-phase1" -> Some { FM.none with FM.stuck_phase1 = true }
  | "stuck-phase2" -> Some { FM.none with FM.stuck_phase2 = true }
  | _ -> None

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("sweepcheck: " ^ msg);
      exit 1)
    fmt

let print_report ~label (r : Check.report) =
  Printf.printf
    "%s: %d cells, %d crash points (%d crashes incl. nested, %d never \
     fired), %d oracle boundaries\n"
    label r.Check.cells r.Check.points r.Check.crashes r.Check.skipped
    r.Check.oracle_boundaries;
  List.iter
    (fun d -> Printf.printf "  DIVERGENCE %s\n" (Check.pp_divergence d))
    (List.rev r.Check.divergences)

(* ----------------------------- sweep ------------------------------ *)

let sweep designs all_designs benches stride max_points nested_every no_torn
    mutate workers =
  let designs =
    if all_designs || designs = [] then H.all_designs
    else
      List.map
        (fun s ->
          match design_of_string s with
          | Some d -> d
          | None -> die "unknown design %S (try: %s)" s
                      (String.concat ", "
                         (List.map H.design_name H.all_designs)))
        designs
  in
  let benches =
    match benches with
    | [] -> Check.default_plan.Check.benches
    | l ->
      List.map
        (fun s ->
          match String.split_on_char '@' s with
          | [ b ] -> (b, 0.16)
          | [ b; sc ] -> (
            match float_of_string_opt sc with
            | Some sc when sc > 0.0 -> (b, sc)
            | _ -> die "bad scale in %S (want bench@scale)" s)
          | _ -> die "bad bench spec %S (want bench or bench@scale)" s)
        l
  in
  List.iter
    (fun (b, _) ->
      try ignore (Check.ast_of_bench ~bench:b ~scale:1.0)
      with Not_found -> die "unknown workload %S" b)
    benches;
  let mutation =
    match mutate with
    | None -> None
    | Some m -> (
      match mutate_of_string m with
      | Some fm -> Some fm
      | None ->
        die "unknown mutation %S (skip-restore | stuck-phase1 | stuck-phase2)"
          m)
  in
  let fm =
    match mutation with
    | Some m -> if no_torn then m else { m with FM.torn_dma = true }
    | None -> { FM.none with FM.torn_dma = not no_torn }
  in
  let plan =
    {
      Check.default_plan with
      Check.designs;
      benches;
      stride;
      max_points;
      nested_every;
      fm;
      workers;
    }
  in
  Printf.printf
    "crash sweep: %d designs x %d workloads, fault model [%s]%s\n%!"
    (List.length designs) (List.length benches) (FM.to_string fm)
    (if mutation <> None then "  (mutation active: expecting divergences)"
     else "");
  let report =
    Check.run_plan ~progress:(fun s -> Printf.printf "  checking %s\n%!" s) plan
  in
  print_report ~label:"sweep" report;
  match mutation with
  | None ->
    if Check.ok report then begin
      print_endline "PASS: every crashed run converged to the oracle";
      0
    end
    else begin
      print_endline "FAIL: state divergence(s) detected";
      1
    end
  | Some _ ->
    if Check.ok report then begin
      print_endline
        "FAIL: mutation went undetected — the checker is silently green";
      1
    end
    else begin
      print_endline "PASS: mutation detected (checker is live)";
      0
    end

(* ------------------------------ fuzz ------------------------------ *)

let fuzz seed count max_points nested_every out =
  let failing = ref None in
  (try
     for i = 0 to count - 1 do
       let s = seed + i in
       let ast = Progen.generate ~seed:s in
       Printf.printf "fuzz seed %d ...%!" s;
       let r = Check.check_program ~max_points ~nested_every ast in
       Printf.printf " %d points, %d crashes%s\n%!" r.Check.points
         r.Check.crashes
         (if Check.ok r then "" else " — FAILING");
       if not (Check.ok r) then begin
         failing := Some (s, ast, r);
         raise Exit
       end
     done
   with Exit -> ());
  match !failing with
  | None ->
    Printf.printf "fuzz: %d programs checked, no divergence\n" count;
    0
  | Some (s, ast, r) ->
    print_report ~label:(Printf.sprintf "fuzz seed %d" s) r;
    Printf.printf "shrinking seed %d ...\n%!" s;
    let still_failing p =
      match Check.check_program ~max_points ~nested_every p with
      | r -> not (Check.ok r)
      | exception _ -> false
    in
    let small = Progen.shrink ~still_failing ast in
    let final = Check.check_program ~max_points ~nested_every small in
    let doc =
      Printf.sprintf
        "sweepcheck fuzz failure\nseed: %d\n\ndivergences:\n%s\n\nprogram \
         (shrunk):\n%s"
        s
        (String.concat "\n"
           (List.map Check.pp_divergence final.Check.divergences))
        (Progen.render small)
    in
    (match out with
    | None -> print_string doc
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc doc);
      Printf.printf "shrunk failing case written to %s\n" path);
    1

(* ---------------------------- cmdliner ---------------------------- *)

let designs_arg =
  Arg.(value & opt (list string) [] & info [ "designs" ] ~docv:"D1,D2"
         ~doc:"Designs to sweep (default: all).")

let all_designs_arg =
  Arg.(value & flag & info [ "all-designs" ] ~doc:"Sweep all designs.")

let benches_arg =
  Arg.(value & opt (list string) [] & info [ "benches" ] ~docv:"B[@S],..."
         ~doc:"Workloads as name or name@scale (default: the 9-job \
               sha/dijkstra/fft matrix).")

let stride_arg =
  Arg.(value & opt int 0 & info [ "stride" ] ~docv:"N"
         ~doc:"Crash every N-th instruction; 0 derives the stride from \
               $(b,--max-points).  1 is exhaustive.")

let max_points_arg =
  Arg.(value & opt int 24 & info [ "max-points" ] ~docv:"N"
         ~doc:"Strided crash points per (design, workload) cell.")

let nested_arg =
  Arg.(value & opt int 5 & info [ "nested" ] ~docv:"K"
         ~doc:"Every K-th point also re-crashes during recovery; 0 \
               disables nested crashes.")

let no_torn_arg =
  Arg.(value & flag & info [ "no-torn" ]
         ~doc:"Disable the torn-DMA fault model (partial line writes at \
               the crash).")

let mutate_arg =
  Arg.(value & opt (some string) None & info [ "mutate" ] ~docv:"M"
         ~doc:"Deliberately break one recovery invariant \
               (skip-restore | stuck-phase1 | stuck-phase2); the sweep \
               must then detect divergences or exit 1.")

let workers_arg =
  Arg.(value & opt int 1 & info [ "j"; "workers" ] ~docv:"N"
         ~doc:"Worker domains for the crash points of each cell.")

let sweep_cmd =
  let doc = "strided/exhaustive crash placement over the workload matrix" in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const sweep $ designs_arg $ all_designs_arg $ benches_arg
          $ stride_arg $ max_points_arg $ nested_arg $ no_torn_arg
          $ mutate_arg $ workers_arg)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"First seed.")

let count_arg =
  Arg.(value & opt int 10 & info [ "count" ] ~docv:"N"
         ~doc:"Number of seeded random programs to check.")

let fuzz_points_arg =
  Arg.(value & opt int 12 & info [ "max-points" ] ~docv:"N"
         ~doc:"Crash points per generated program and design.")

let fuzz_nested_arg =
  Arg.(value & opt int 4 & info [ "nested" ] ~docv:"K"
         ~doc:"Every K-th point also re-crashes during recovery.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"PATH"
         ~doc:"Write the shrunk failing case here (CI artifact).")

let fuzz_cmd =
  let doc = "seeded random programs with shrinking of failing crash points" in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const fuzz $ seed_arg $ count_arg $ fuzz_points_arg
          $ fuzz_nested_arg $ out_arg)

let () =
  let doc = "differential crash-consistency checker for SweepCache" in
  let info = Cmd.info "sweepcheck" ~version:"dev" ~doc in
  exit (Cmd.eval' (Cmd.group info [ sweep_cmd; fuzz_cmd ]))
