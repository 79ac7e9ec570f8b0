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

let load path =
  if not (Sys.file_exists path) then Ok ([], [])
  else begin
    let ic = open_in path in
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> ());
    let lines = List.rev !lines in
    let n = List.length lines in
    let cells = ref [] and warnings = ref [] and error = ref None in
    List.iteri
      (fun idx raw ->
        let lineno = idx + 1 in
        if !error = None && String.trim raw <> "" then
          match Option.bind (Result.to_option (Json.parse raw)) cell_of_json with
          | Some cell -> cells := cell :: !cells
          | None when lineno = n ->
            (* Torn final line: the crash interrupted the write. *)
            warnings :=
              Printf.sprintf "journal: dropped torn final line %d" lineno
              :: !warnings
          | None ->
            error :=
              Some (Printf.sprintf "%s: malformed journal line %d" path lineno))
      lines;
    match !error with
    | Some e -> Error e
    | None -> Ok (List.rev !cells, List.rev !warnings)
  end
