(** Serialisation of per-PC attribution profiles.

    Bridges a run's {!Sweep_obs.Attrib} counters and the program's
    label map ({!Sweep_isa.Decoded}) into two deterministic formats:

    - a schema-versioned JSON table ([sweepsim --attrib out.json]),
      read back by {!of_json} and rendered by [sweeptrace profile]
      ([Sweep_analyze.Profile_view]);
    - Brendan Gregg collapsed stacks ([func;label+off;op weight]) for
      flamegraph.pl / speedscope / inferno.

    Output contains no wall-clock or host data, and rows are emitted in
    PC order, so the same job profiles byte-identically at any [-j]. *)

val schema_version : int
(** Bumped on any breaking change to the JSON layout (currently 1). *)

type row = {
  pc : int;
  op : string;  (** mnemonic, e.g. ["store"], ["br.lt"] *)
  label : string;  (** nearest enclosing label *)
  label_off : int;  (** offset from that label *)
  func : string;  (** enclosing source function *)
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
  totals : Sweep_obs.Attrib.totals;
  rows : row list;  (** PC order; only PCs with activity *)
}

val make :
  ?design:string ->
  ?bench:string ->
  ?scale:float ->
  ?key:string ->
  Sweep_isa.Program.t ->
  Sweep_obs.Attrib.t ->
  t
(** Raises [Invalid_argument] if the counters are disabled or sized for
    a different program. *)

val of_result :
  ?bench:string -> ?scale:float -> ?key:string -> Harness.result ->
  t option
(** [None] when the run was not started with [~attrib:true]. *)

val to_json : t -> string

val of_json : Sweep_util.Json.t -> (t, string) result
(** Inverse of {!to_json}.  Strict: wrong [kind], unsupported
    [schema_version], or any missing row/totals field is an [Error]. *)

val load : string -> (t, string) result
(** {!of_json} of a profile file; errors name the path. *)

val to_folded : t -> string
val write_json : t -> path:string -> unit
val write_folded : t -> path:string -> unit
