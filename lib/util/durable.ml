(* The host's two commit rules and its directory maker; see durable.mli. *)

(* Run [f], naming [path] in any I/O failure.  Channel failures carry no
   path of their own: every file written here is opened by [Unix]. *)
let guard path f =
  let fail msg = raise (Sys_error (path ^ ": " ^ msg)) in
  try f () with
  | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  | Sys_error msg -> fail msg

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> Filename.dirname d && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  guard dir (fun () -> go dir)

(* EINVAL: a pipe or terminal, which has nothing to sync. *)
let fsync fd =
  try Unix.fsync fd with
  | Unix.Unix_error (Unix.EINVAL, _, _) -> ()
  | Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e))

let sync oc =
  flush oc;
  fsync (Unix.descr_of_out_channel oc)

let tmp_seq = Atomic.make 0

let write_atomic path f =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  try
    guard path (fun () ->
        (* Renaming over a device or a link would replace it. *)
        (match Unix.lstat path with
        | { Unix.st_kind = Unix.S_REG; _ } | (exception Unix.Unix_error _) -> ()
        | _ -> raise (Sys_error "not a regular file"));
        let flags = Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] in
        let oc = Unix.out_channel_of_descr (Unix.openfile tmp flags 0o666) in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            f oc;
            sync oc);
        Unix.rename tmp path;
        let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close dir) (fun () -> fsync dir))
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

type log = { path : string; fd : Unix.file_descr }

(* Offset just past the last newline before [pos], or 0. *)
let rec committed fd pos =
  let n = min pos 4096 in
  let buf = Bytes.create n in
  ignore (Unix.lseek fd (pos - n) Unix.SEEK_SET);
  match Bytes.rindex_from_opt buf (Unix.read fd buf 0 n - 1) '\n' with
  | Some i -> pos - n + i + 1
  | None -> if n = pos then 0 else committed fd (pos - n)

let with_log path f =
  let flags = Unix.[ O_RDWR; O_APPEND; O_CREAT; O_CLOEXEC ] in
  let fd = guard path (fun () -> Unix.openfile path flags 0o666) in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      guard path (fun () ->
          let size = Unix.lseek fd 0 Unix.SEEK_END in
          let keep = committed fd size in
          if keep < size then Unix.ftruncate fd keep);
      f { path; fd })

let append log line =
  guard log.path (fun () ->
      let s = line ^ "\n" in
      ignore (Unix.write_substring log.fd s 0 (String.length s));
      fsync log.fd)

(* [open_in_bin] (which, unlike [Unix.in_channel_of_descr], opens a
   directory) names the file in its message; callers name it once. *)
let read path f =
  match open_in_bin path with
  | exception Sys_error e ->
    let n = String.length path + 2 in
    if String.starts_with ~prefix:(path ^ ": ") e then
      Error (String.sub e n (String.length e - n))
    else Error e
  | ic -> (
    try Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
    with Sys_error e -> Error e)

let fold_log path ~init f =
  read path (fun ic ->
      let rec go acc lineno =
        let start = pos_in ic in
        match input_line ic with
        | exception End_of_file -> Ok (acc, None)
        | line when pos_in ic = start + String.length line ->
          Ok (acc, Some (lineno, line))
        | line ->
          Result.bind (f acc lineno line) (fun acc -> go acc (lineno + 1))
      in
      go init 1)
