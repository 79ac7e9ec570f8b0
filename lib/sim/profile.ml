(* Per-PC profile serialisation: turn a run's {!Sweep_obs.Attrib}
   counters plus the program's label map into the schema-versioned
   JSON table that [sweepsim --attrib] / [sweepexp --attrib-dir] emit
   and [sweeptrace profile] reads, and into Brendan Gregg collapsed
   stacks ("func;label+off;op weight" lines) for flamegraph tooling.

   Everything here is deterministic: rows are in PC order, numbers
   print as %d / %.17g, and no wall-clock or host information is
   embedded — so profiles of the same job are byte-identical at any
   worker count. *)

module Attrib = Sweep_obs.Attrib
module Decoded = Sweep_isa.Decoded
module Program = Sweep_isa.Program
module Json = Sweep_util.Json

let schema_version = 1

type row = {
  pc : int;
  op : string;
  label : string;
  label_off : int;
  func : string;
  count : int;
  forward : int;  (** count - reexec: instructions that stuck *)
  reexec : int;
  crashes : int;
  ns : float;
  stall_ns : float;
  joules : float;
  backup_joules : float;
  restore_joules : float;
  ckpt_ns : float;
  nvm_writes : int;
  ckpt_nvm_writes : int;
  cache_misses : int;
}

type t = {
  design : string;
  bench : string;
  scale : float;
  key : string;
  totals : Attrib.totals;
  rows : row list;
}

let make ?(design = "") ?(bench = "") ?(scale = 1.0) ?(key = "") prog
    (at : Attrib.t) =
  if not (Attrib.armed at) then
    invalid_arg "Profile.make: attribution was not armed for this run";
  let len = Array.length prog.Program.code in
  if Attrib.length at <> len then
    invalid_arg
      (Printf.sprintf
         "Profile.make: counters cover %d PCs but the program has %d"
         (Attrib.length at) len);
  let dec = Decoded.compile prog in
  let rows = ref [] in
  for pc = len - 1 downto 0 do
    (* A row exists iff anything was ever charged to this PC — cold
       checkpoint costs can land on a PC that never retired (crash
       struck before its first completion). *)
    if
      at.Attrib.count.(pc) <> 0
      || at.Attrib.crashes.(pc) <> 0
      || at.Attrib.ckpt_nvm_writes.(pc) <> 0
      || at.Attrib.ckpt_ns.(pc) <> 0.0
      || at.Attrib.backup_joules.(pc) <> 0.0
      || at.Attrib.restore_joules.(pc) <> 0.0
    then
      rows :=
        {
          pc;
          op = Decoded.pc_op_name dec pc;
          label = Decoded.pc_label dec pc;
          label_off = Decoded.pc_label_off dec pc;
          func = Decoded.pc_func dec pc;
          count = at.Attrib.count.(pc);
          forward = at.Attrib.count.(pc) - at.Attrib.reexec.(pc);
          reexec = at.Attrib.reexec.(pc);
          crashes = at.Attrib.crashes.(pc);
          ns = at.Attrib.ns.(pc);
          stall_ns = at.Attrib.stall_ns.(pc);
          joules = at.Attrib.joules.(pc);
          backup_joules = at.Attrib.backup_joules.(pc);
          restore_joules = at.Attrib.restore_joules.(pc);
          ckpt_ns = at.Attrib.ckpt_ns.(pc);
          nvm_writes = at.Attrib.nvm_writes.(pc);
          ckpt_nvm_writes = at.Attrib.ckpt_nvm_writes.(pc);
          cache_misses = at.Attrib.cache_misses.(pc);
        }
        :: !rows
  done;
  { design; bench; scale; key; totals = Attrib.totals at; rows = !rows }

(* %.17g keeps parse/render round-trips exact; integral floats still
   carry enough digits that a reader can't confuse them with ints. *)
let fl = Printf.sprintf "%.17g"
let js = Json.escape_string

let totals_json (tt : Attrib.totals) =
  Printf.sprintf
    "{\"instructions\":%d,\"reexec\":%d,\"forward\":%d,\"nvm_writes\":%d,\"ckpt_nvm_writes\":%d,\"cache_misses\":%d,\"crashes\":%d,\"ns\":%s,\"stall_ns\":%s,\"joules\":%s,\"backup_joules\":%s,\"restore_joules\":%s,\"ckpt_ns\":%s}"
    tt.Attrib.t_instructions tt.Attrib.t_reexec
    (tt.Attrib.t_instructions - tt.Attrib.t_reexec)
    tt.Attrib.t_nvm_writes tt.Attrib.t_ckpt_nvm_writes
    tt.Attrib.t_cache_misses tt.Attrib.t_crashes (fl tt.Attrib.t_ns)
    (fl tt.Attrib.t_stall_ns) (fl tt.Attrib.t_joules)
    (fl tt.Attrib.t_backup_joules)
    (fl tt.Attrib.t_restore_joules)
    (fl tt.Attrib.t_ckpt_ns)

let row_json r =
  Printf.sprintf
    "{\"pc\":%d,\"op\":%s,\"label\":%s,\"label_off\":%d,\"func\":%s,\"count\":%d,\"forward\":%d,\"reexec\":%d,\"crashes\":%d,\"ns\":%s,\"stall_ns\":%s,\"joules\":%s,\"backup_joules\":%s,\"restore_joules\":%s,\"ckpt_ns\":%s,\"nvm_writes\":%d,\"ckpt_nvm_writes\":%d,\"cache_misses\":%d}"
    r.pc (js r.op) (js r.label) r.label_off (js r.func) r.count r.forward
    r.reexec r.crashes (fl r.ns) (fl r.stall_ns) (fl r.joules)
    (fl r.backup_joules) (fl r.restore_joules) (fl r.ckpt_ns) r.nvm_writes
    r.ckpt_nvm_writes r.cache_misses

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema_version\":%d,\"kind\":\"sweepcache-profile\",\"design\":%s,\"bench\":%s,\"scale\":%s,\"key\":%s,\"totals\":%s,\"rows\":[\n"
       schema_version (js t.design) (js t.bench) (fl t.scale) (js t.key)
       (totals_json t.totals));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (row_json r))
    t.rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* Collapsed stacks, one line per PC: func;label+off;op <ns>.  The
   label+off frame makes every PC's stack unique, so flamegraph width
   is exact per-instruction time; rows whose rounded weight is zero
   are dropped (flamegraph.pl rejects zero-weight lines). *)
let to_folded t =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      let w = int_of_float (Float.round (r.ns +. r.ckpt_ns)) in
      if w > 0 then
        Buffer.add_string b
          (Printf.sprintf "%s;%s+%d;%s %d\n" r.func r.label r.label_off r.op w))
    t.rows;
  Buffer.contents b

(* Read back what [to_json] wrote.  Strict: a foreign [kind], another
   [schema_version], or any missing row/totals field is an error.  The
   totals' [forward] is not read: it is [instructions - reexec], as
   written. *)
exception Bad of string

let req conv what name j =
  match conv name j with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing %s field %S" what name))

let req_int = req Json.int_member "integer"
let req_float = req Json.float_member "numeric"
let req_str = req Json.string_member "string"

let row_of_json j =
  {
    pc = req_int "pc" j;
    op = req_str "op" j;
    label = req_str "label" j;
    label_off = req_int "label_off" j;
    func = req_str "func" j;
    count = req_int "count" j;
    forward = req_int "forward" j;
    reexec = req_int "reexec" j;
    crashes = req_int "crashes" j;
    ns = req_float "ns" j;
    stall_ns = req_float "stall_ns" j;
    joules = req_float "joules" j;
    backup_joules = req_float "backup_joules" j;
    restore_joules = req_float "restore_joules" j;
    ckpt_ns = req_float "ckpt_ns" j;
    nvm_writes = req_int "nvm_writes" j;
    ckpt_nvm_writes = req_int "ckpt_nvm_writes" j;
    cache_misses = req_int "cache_misses" j;
  }

let totals_of_json j =
  {
    Attrib.t_instructions = req_int "instructions" j;
    t_reexec = req_int "reexec" j;
    t_nvm_writes = req_int "nvm_writes" j;
    t_ckpt_nvm_writes = req_int "ckpt_nvm_writes" j;
    t_cache_misses = req_int "cache_misses" j;
    t_crashes = req_int "crashes" j;
    t_ns = req_float "ns" j;
    t_stall_ns = req_float "stall_ns" j;
    t_joules = req_float "joules" j;
    t_backup_joules = req_float "backup_joules" j;
    t_restore_joules = req_float "restore_joules" j;
    t_ckpt_ns = req_float "ckpt_ns" j;
  }

let of_json j =
  try
    (match Json.string_member "kind" j with
    | Some "sweepcache-profile" -> ()
    | Some k -> raise (Bad (Printf.sprintf "kind %S is not a profile" k))
    | None -> raise (Bad "missing \"kind\" member"));
    (match Json.int_member "schema_version" j with
    | Some v when v = schema_version -> ()
    | Some v -> raise (Bad (Printf.sprintf "unsupported schema_version %d" v))
    | None -> raise (Bad "missing \"schema_version\""));
    let totals =
      match Json.member "totals" j with
      | Some tj -> totals_of_json tj
      | None -> raise (Bad "missing \"totals\"")
    in
    let rows =
      match Json.list_member "rows" j with
      | Some l -> List.map row_of_json l
      | None -> raise (Bad "missing \"rows\"")
    in
    Ok
      {
        design = Option.value ~default:"" (Json.string_member "design" j);
        bench = Option.value ~default:"" (Json.string_member "bench" j);
        scale = Option.value ~default:1.0 (Json.float_member "scale" j);
        key = Option.value ~default:"" (Json.string_member "key" j);
        totals;
        rows;
      }
  with Bad msg -> Error msg

let load path = Json.load path of_json

let write path data =
  Sweep_util.Durable.write_atomic path (fun oc -> output_string oc data)

let write_json t ~path = write path (to_json t)
let write_folded t ~path = write path (to_folded t)

let of_result ?(bench = "") ?(scale = 1.0) ?(key = "") (r : Harness.result) =
  match r.Harness.attrib with
  | None -> None
  | Some at ->
    Some
      (make
         ~design:(Harness.design_name r.Harness.design)
         ~bench ~scale ~key
         r.Harness.compiled.Sweep_compiler.Pipeline.program at)
