module Json = Sweep_util.Json

type objectives = {
  runtime_ns : float;
  nvm_writes : float;
  hw_bits : int;
}

type entry = {
  point : Space.point;
  benches : string list;
  objs : objectives;
}

let dominates a b =
  a.runtime_ns <= b.runtime_ns
  && a.nvm_writes <= b.nvm_writes
  && a.hw_bits <= b.hw_bits
  && (a.runtime_ns < b.runtime_ns
     || a.nvm_writes < b.nvm_writes
     || a.hw_bits < b.hw_bits)

type t = entry list (* non-dominated, unordered *)

let empty = []
let size = List.length

let insert t e =
  if List.exists (fun m -> dominates m.objs e.objs) t then t
  else e :: List.filter (fun m -> not (dominates e.objs m.objs)) t

let of_entries entries = List.fold_left insert empty entries

let order a b =
  let c = Float.compare a.objs.runtime_ns b.objs.runtime_ns in
  if c <> 0 then c
  else
    let c = Float.compare a.objs.nvm_writes b.objs.nvm_writes in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.objs.hw_bits b.objs.hw_bits in
      if c <> 0 then c else Space.compare a.point b.point

let members t = List.sort order t

let schema_version = 1

let entry_line e =
  Printf.sprintf
    "{\"schema_version\":%d,\"id\":%s,%s,\"benches\":[%s],\
     \"runtime_ns\":%.17g,\"nvm_writes\":%.17g,\"hw_bits\":%d}"
    schema_version
    (Json.escape_string (Space.id e.point))
    (Space.json_fields e.point)
    (String.concat ","
       (List.map Json.escape_string (List.sort Stdlib.compare e.benches)))
    e.objs.runtime_ns e.objs.nvm_writes e.objs.hw_bits

let write_jsonl path t =
  Sweep_util.Durable.write_atomic path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (entry_line e);
          output_char oc '\n')
        (members t))

let entry_of_json j =
  let ( let* ) = Option.bind in
  let* point = Space.of_json j in
  let* benches =
    Option.bind (Json.list_member "benches" j) (fun l ->
        let names = List.filter_map Json.to_string l in
        if List.length names = List.length l then Some names else None)
  in
  let* runtime_ns = Json.float_member "runtime_ns" j in
  let* nvm_writes = Json.float_member "nvm_writes" j in
  let* hw_bits = Json.int_member "hw_bits" j in
  Some { point; benches; objs = { runtime_ns; nvm_writes; hw_bits } }

let load path =
  let step entries lineno raw =
    let bad fmt =
      Printf.ksprintf
        (fun m -> Error (Printf.sprintf "frontier line %d: %s" lineno m))
        fmt
    in
    if String.trim raw = "" then Ok entries
    else
      match Json.parse raw with
      | Error e -> bad "%s" e
      | Ok j -> (
        match Json.int_member "schema_version" j with
        | Some v when v <> schema_version ->
          bad "schema version %d (expected %d)" v schema_version
        | Some _ -> (
          match entry_of_json j with
          | Some e -> Ok (e :: entries)
          | None -> bad "missing fields")
        | None -> bad "missing schema_version")
  in
  match Json.fold_lines path ~init:[] step with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok entries -> Ok (List.rev entries)
