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

let append oc c =
  output_string oc (line c);
  output_char oc '\n';
  flush oc

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

(* A line that does not decode is tolerated only as the last line: the
   crash interrupted its write.  [torn] holds such a line's number until
   another line shows it was not the last. *)
let load path =
  if not (Sys.file_exists path) then Ok ([], [])
  else
    let step (cells, torn) lineno raw =
      match torn with
      | Some k -> Error (Printf.sprintf "malformed journal line %d" k)
      | None when String.trim raw = "" -> Ok (cells, None)
      | None -> (
        match Option.bind (Result.to_option (Json.parse raw)) cell_of_json with
        | Some cell -> Ok (cell :: cells, None)
        | None -> Ok (cells, Some lineno))
    in
    match Json.fold_lines path ~init:([], None) step with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok (cells, torn) ->
      Ok
        ( List.rev cells,
          match torn with
          | None -> []
          | Some k ->
            [ Printf.sprintf "journal: dropped torn final line %d" k ] )
