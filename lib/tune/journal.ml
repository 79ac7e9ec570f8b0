module Json = Sweep_util.Json

type cell = {
  point : Space.point;
  bench : string;
  scale : float;
  key : string;
  runtime_ns : float;
  nvm_writes : int;
  completed : bool;
  failed : bool;
  error : string;
}

let schema_version = 1

let line c =
  let js = Json.escape_string in
  Printf.sprintf
    "{\"schema_version\":%d,\"key\":%s,%s,\"bench\":%s,\"scale\":%.17g,\
     \"runtime_ns\":%.17g,\"nvm_writes\":%d,\"completed\":%b,\"failed\":%b,\
     \"error\":%s}"
    schema_version (js c.key) (Space.json_fields c.point) (js c.bench) c.scale
    c.runtime_ns c.nvm_writes c.completed c.failed (js c.error)

let cell_of_json j =
  let ( let* ) = Option.bind in
  let* () =
    if Json.int_member "schema_version" j = Some schema_version then Some ()
    else None
  in
  let* point = Space.of_json j in
  let* key = Json.string_member "key" j in
  let* bench = Json.string_member "bench" j in
  let* scale = Json.float_member "scale" j in
  let* runtime_ns = Json.float_member "runtime_ns" j in
  let* nvm_writes = Json.int_member "nvm_writes" j in
  let* completed = Json.bool_member "completed" j in
  let* failed = Json.bool_member "failed" j in
  let* error = Json.string_member "error" j in
  Some { point; bench; scale; key; runtime_ns; nvm_writes; completed; failed; error }

(* Every committed line must decode; a torn tail is the crash's
   half-written line, dropped with a warning. *)
let load path =
  if not (Sys.file_exists path) then Ok ([], [])
  else
    let step cells lineno raw =
      match Option.bind (Result.to_option (Json.parse raw)) cell_of_json with
      | Some cell -> Ok (cell :: cells)
      | None -> Error (Printf.sprintf "malformed journal line %d" lineno)
    in
    match Sweep_util.Durable.fold_log path ~init:[] step with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok (cells, None) -> Ok (List.rev cells, [])
    | Ok (cells, Some (k, _)) ->
      let warning = Printf.sprintf "journal: dropped torn final line %d" k in
      Ok (List.rev cells, [ warning ])
