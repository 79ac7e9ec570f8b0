module Trace = Sweep_energy.Power_trace
module Config = Sweep_machine.Config
module Pipeline = Sweep_compiler.Pipeline
module Layout = Sweep_isa.Layout
module Jobs = Sweep_exp.Jobs
module Json = Sweep_util.Json

type point = {
  cache_bytes : int;
  assoc : int;
  buffer_entries : int;
  store_cap : int;
  max_unroll : int;
  farads : float;
  trace : Trace.kind;
}

let paper_point =
  {
    cache_bytes = 4096;
    assoc = 2;
    buffer_entries = 64;
    store_cap = 64;
    max_unroll = 4;
    farads = 470e-9;
    trace = Trace.Rf_office;
  }

type t = {
  cache_bytes : int list;
  assoc : int list;
  buffer_entries : int list;
  store_cap : int list;
  max_unroll : int list;
  farads : float list;
  traces : Trace.kind list;
}

(* The pinned matrix: every axis brackets the paper's choice.  Capacitors
   below 470 nF are excluded — the EH model cannot guarantee forward
   progress for 64-store regions there, and a Stagnation point teaches
   the frontier nothing.  Likewise store caps at or below the region
   former's checkpoint reserve (18 slots), which it rejects outright. *)
let default =
  {
    cache_bytes = [ 2048; 4096; 8192 ];
    assoc = [ 1; 2 ];
    buffer_entries = [ 32; 64; 128 ];
    store_cap = [ 24; 64 ];
    max_unroll = [ 1; 4 ];
    farads = [ 470e-9; 1e-6 ];
    traces = [ Trace.Rf_office ];
  }

let valid (p : point) =
  p.buffer_entries > 0 && p.max_unroll > 0
  && p.farads > 0.0
  && p.store_cap > Sweep_compiler.Regions.ckpt_reserve
  && p.store_cap <= p.buffer_entries
  && Config.valid_geometry ~size:p.cache_bytes ~assoc:p.assoc

let trace_index k =
  let rec find i = function
    | [] -> -1
    | k' :: rest -> if k' = k then i else find (i + 1) rest
  in
  find 0 Trace.all_kinds

let compare (a : point) (b : point) =
  let c = Stdlib.compare (a.cache_bytes, a.assoc) (b.cache_bytes, b.assoc) in
  if c <> 0 then c
  else
    let c =
      Stdlib.compare
        (a.buffer_entries, a.store_cap, a.max_unroll)
        (b.buffer_entries, b.store_cap, b.max_unroll)
    in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.farads b.farads in
      if c <> 0 then c
      else Stdlib.compare (trace_index a.trace) (trace_index b.trace)

let points t =
  let acc = ref [] in
  List.iter
    (fun cache_bytes ->
      List.iter
        (fun assoc ->
          List.iter
            (fun buffer_entries ->
              List.iter
                (fun store_cap ->
                  List.iter
                    (fun max_unroll ->
                      List.iter
                        (fun farads ->
                          List.iter
                            (fun trace ->
                              let p =
                                { cache_bytes; assoc; buffer_entries;
                                  store_cap; max_unroll; farads; trace }
                              in
                              if valid p then acc := p :: !acc)
                            t.traces)
                        t.farads)
                    t.max_unroll)
                t.store_cap)
            t.buffer_entries)
        t.assoc)
    t.cache_bytes;
  List.sort_uniq compare !acc

let farads_label f =
  if f >= 1e-3 then Printf.sprintf "%gmF" (f /. 1e-3)
  else if f >= 1e-6 then Printf.sprintf "%guF" (f /. 1e-6)
  else Printf.sprintf "%gnF" (f /. 1e-9)

let label (p : point) =
  Printf.sprintf "tune:c%da%de%ds%du%d" p.cache_bytes p.assoc p.buffer_entries
    p.store_cap p.max_unroll

let id (p : point) =
  Printf.sprintf "c%da%de%ds%du%d-%s-%s" p.cache_bytes p.assoc p.buffer_entries
    p.store_cap p.max_unroll (farads_label p.farads)
    (Trace.kind_name p.trace)

let setting (p : point) =
  let config =
    Config.with_buffer_entries
      (Config.with_geometry Config.default ~size:p.cache_bytes ~assoc:p.assoc)
      p.buffer_entries
  in
  let options =
    Pipeline.options_for ~farads:p.farads ~store_threshold:p.store_cap
      ~max_unroll:p.max_unroll ()
  in
  Sweep_exp.Exp_common.setting ~label:(label p) ~config ~options
    Sweep_sim.Harness.Sweep

let power (p : point) = Jobs.harvested ~farads:p.farads p.trace

let job ?scale p bench = Jobs.job ~exp:"tune" ?scale (setting p) ~power:(power p) bench

(* Matches Exp_hwcost: the §6.9 accounting, extended with the cache SRAM
   itself since cache geometry is an axis here. *)
let hw_bits (p : point) =
  let lines = p.cache_bytes / Layout.line_bytes in
  let cache_bits = (p.cache_bytes * 8) + (32 * lines) in
  let buffer_count = Config.default.Config.buffer_count in
  let buffer_bits =
    buffer_count * p.buffer_entries * ((Layout.line_bytes * 8) + 32)
  in
  let control_bits = buffer_count + (2 * buffer_count) + (2 * lines) in
  cache_bits + buffer_bits + control_bits

let trace_of_name s =
  List.find_opt (fun k -> Trace.kind_name k = s) Trace.all_kinds

let json_fields (p : point) =
  Printf.sprintf
    "\"cache_bytes\":%d,\"assoc\":%d,\"buffer_entries\":%d,\"store_cap\":%d,\
     \"max_unroll\":%d,\"farads\":%.17g,\"trace\":%s"
    p.cache_bytes p.assoc p.buffer_entries p.store_cap p.max_unroll p.farads
    (Json.escape_string (Trace.kind_name p.trace))

let of_json j =
  let ( let* ) = Option.bind in
  let* cache_bytes = Json.int_member "cache_bytes" j in
  let* assoc = Json.int_member "assoc" j in
  let* buffer_entries = Json.int_member "buffer_entries" j in
  let* store_cap = Json.int_member "store_cap" j in
  let* max_unroll = Json.int_member "max_unroll" j in
  let* farads = Json.float_member "farads" j in
  let* trace = Option.bind (Json.string_member "trace" j) trace_of_name in
  Some { cache_bytes; assoc; buffer_entries; store_cap; max_unroll; farads; trace }
