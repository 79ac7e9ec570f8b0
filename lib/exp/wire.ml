(* JSONL pipe protocol between the supervisor and its worker processes.

   One frame per line, each a flat JSON object tagged by a ["frame"]
   field.  Job specs and result summaries travel as hex-encoded
   [Marshal] payloads inside JSON strings: both types are plain data
   (records, variants, strings, numbers — verified where they are
   defined), and supervisor and worker are the same binary, so the
   marshal format is identical on both ends by construction.

   The decoder is deliberately forgiving: a line that does not parse as
   a frame yields [None] and the supervisor skips it (a worker killed
   mid-write leaves a torn final line; the fsync'd results JSONL — not
   this pipe — is the durability surface).  Lines are read with
   {!Sweep_util.Json}, which returns an error, never an exception, on
   malformed input. *)

type to_worker =
  | Init of { heartbeat_every : int; attrib_dir : string option }
  | Job of { key : string; spec : Jobs.t; sim_budget_ns : float option }
  | Quit

type from_worker =
  | Beat of {
      key : string;
      instructions : int;
      sim_ns : float;
      reboots : int;
      nvm_writes : int;
      beats : int;
    }
  | Done of { key : string; elapsed_s : float; summary : Results.summary }
  | Failed of { key : string; error : string; backtrace : string }

(* {2 Hex codec} *)

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  let digit d = "0123456789abcdef".[d] in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.unsafe_to_string b

exception Bad

let of_hex s =
  let n = String.length s in
  if n land 1 <> 0 then raise Bad;
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> raise Bad
  in
  String.init (n / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

(* {2 Frames} *)

module Json = Sweep_util.Json

let js = Json.escape_string

let line_of_to_worker = function
  | Init { heartbeat_every; attrib_dir } ->
    Printf.sprintf "{\"frame\":\"init\",\"heartbeat_every\":%d,\"attrib_dir\":%s}"
      heartbeat_every
      (match attrib_dir with None -> "null" | Some d -> js d)
  | Job { key; spec; sim_budget_ns } ->
    Printf.sprintf "{\"frame\":\"job\",\"key\":%s,\"spec\":\"%s\",\"sim_budget_ns\":%s}"
      (js key)
      (to_hex (Marshal.to_string (spec : Jobs.t) []))
      (match sim_budget_ns with
      | None -> "null"
      | Some b -> Printf.sprintf "%.17g" b)
  | Quit -> "{\"frame\":\"quit\"}"

let line_of_from_worker = function
  | Beat { key; instructions; sim_ns; reboots; nvm_writes; beats } ->
    Printf.sprintf
      "{\"frame\":\"beat\",\"key\":%s,\"instructions\":%d,\"sim_ns\":%.17g,\
       \"reboots\":%d,\"nvm_writes\":%d,\"beats\":%d}"
      (js key) instructions sim_ns reboots nvm_writes beats
  | Done { key; elapsed_s; summary } ->
    Printf.sprintf
      "{\"frame\":\"done\",\"key\":%s,\"elapsed_s\":%.17g,\"summary\":\"%s\"}"
      (js key) elapsed_s
      (to_hex (Marshal.to_string (summary : Results.summary) []))
  | Failed { key; error; backtrace } ->
    Printf.sprintf
      "{\"frame\":\"failed\",\"key\":%s,\"error\":%s,\"backtrace\":%s}"
      (js key) (js error) (js backtrace)

(* {2 Decoding}

   Every accessor returns [None] on a missing or mistyped field, so one
   bad field drops the whole frame. *)

let ( let* ) = Option.bind

(* A field that may be [null] or absent: [Some None] then, [None] when
   it holds a value of the wrong type. *)
let nullable conv name j =
  match Json.member name j with
  | None | Some Json.Null -> Some None
  | Some v -> Option.map Option.some (conv v)

let unmarshal name j =
  let* hex = Json.string_member name j in
  try Some (Marshal.from_string (of_hex hex) 0)
  with Bad | Failure _ | Invalid_argument _ -> None

(* The frame object and its tag; [None] for a torn or malformed line. *)
let frame line =
  match Json.parse line with
  | Ok (Json.Obj _ as j) ->
    Option.map (fun tag -> (tag, j)) (Json.string_member "frame" j)
  | _ -> None

let to_worker_of_line line =
  let* tag, j = frame line in
  match tag with
  | "init" ->
    let* heartbeat_every = Json.int_member "heartbeat_every" j in
    let* attrib_dir = nullable Json.to_string "attrib_dir" j in
    Some (Init { heartbeat_every; attrib_dir })
  | "job" ->
    let* key = Json.string_member "key" j in
    let* sim_budget_ns = nullable Json.to_float "sim_budget_ns" j in
    let* spec = (unmarshal "spec" j : Jobs.t option) in
    Some (Job { key; spec; sim_budget_ns })
  | "quit" -> Some Quit
  | _ -> None

let from_worker_of_line line =
  let* tag, j = frame line in
  let* key = Json.string_member "key" j in
  match tag with
  | "beat" ->
    let int name = Json.int_member name j in
    let* instructions = int "instructions" in
    let* sim_ns = Json.float_member "sim_ns" j in
    let* reboots = int "reboots" in
    let* nvm_writes = int "nvm_writes" in
    let* beats = int "beats" in
    Some (Beat { key; instructions; sim_ns; reboots; nvm_writes; beats })
  | "done" ->
    let* elapsed_s = Json.float_member "elapsed_s" j in
    let* summary = (unmarshal "summary" j : Results.summary option) in
    Some (Done { key; elapsed_s; summary })
  | "failed" ->
    let* error = Json.string_member "error" j in
    let* backtrace = Json.string_member "backtrace" j in
    Some (Failed { key; error; backtrace })
  | _ -> None
