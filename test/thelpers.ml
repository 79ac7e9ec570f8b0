(* Small shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Run a program through the reference interpreter and return its global
   image as an association list. *)
let interp_image prog =
  Sweep_lang.Interp.globals_image (Sweep_lang.Interp.run prog)

let image_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, d1) (n2, d2) -> n1 = n2 && d1 = d2) a b

(* A tiny deterministic program used by many unit tests: fills an array
   and folds it into a scalar through a helper function. *)
let tiny_program () =
  let open Sweep_lang.Dsl in
  program
    [ array "data" 32; scalar "acc" 0 ]
    [
      func "fold" [ "lo"; "hi" ]
        [
          set "s" (i 0);
          for_ "k" (v "lo") (v "hi") [ set "s" (v "s" + ld "data" (v "k")) ];
          ret (v "s");
        ];
      func "main" []
        [
          for_ "k" (i 0) (i 32) [ st "data" (v "k") (v "k" * v "k" + i 3) ];
          setg "acc" (call "fold" [ i 0; i 32 ]);
          ret_unit;
        ];
    ]

let run_design ?config ?options ?power design prog =
  let power = Option.value power ~default:Sweep_sim.Driver.Unlimited in
  Sweep_sim.Harness.run ?config ?options design ~power prog

let assert_consistent ?config ?options ?power design prog =
  let r = run_design ?config ?options ?power design prog in
  match Sweep_sim.Harness.check_against_interp r prog with
  | Ok () -> r
  | Error e -> Alcotest.failf "inconsistent final state: %s" e

let office_trace = lazy (Sweep_energy.Power_trace.make Sweep_energy.Power_trace.Rf_office)

let harvested ?(farads = 470e-9) () =
  Sweep_sim.Driver.harvested ~trace:(Lazy.force office_trace) ~farads ()

(* Run [f] on a fresh directory, removed with its contents afterwards. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "sweep-test" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* Cut [path]'s last line in half, newline included: the bytes a crash
   in the middle of an append leaves behind. *)
let tear_last_line path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let body = String.length s - 1 in
  let start =
    match String.rindex_from_opt s (body - 1) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  Unix.truncate path (start + ((body - start) / 2))
