(** Typed design space over SweepCache's hardware and compiler knobs.

    A {!point} is one candidate system: cache geometry, persist-buffer
    capacity, the compiler's region store cap and unroll factor, the
    capacitor, and the ambient power trace — everything the paper's §6
    sweeps by hand.  A {!t} is one list of candidate values per axis;
    {!points} is its cartesian product filtered by {!valid}, in a
    canonical order that every search strategy and report shares, so
    output is independent of worker count. *)

type point = {
  cache_bytes : int;   (** data-cache size; sets = bytes / (assoc * 64) *)
  assoc : int;         (** cache ways *)
  buffer_entries : int;(** persist-buffer capacity (the paper's 64×64 B) *)
  store_cap : int;     (** compiler region store threshold (§4.1) *)
  max_unroll : int;    (** loop-unroll factor cap; 1 disables unrolling *)
  farads : float;      (** storage capacitor *)
  trace : Sweep_energy.Power_trace.kind;  (** ambient power *)
}

val paper_point : point
(** The configuration the paper evaluates: 4 kB 2-way cache, 64-entry
    buffers, store cap 64, unroll 4, 470 nF, RFOffice. *)

type t = {
  cache_bytes : int list;
  assoc : int list;
  buffer_entries : int list;
  store_cap : int list;
  max_unroll : int list;
  farads : float list;
  traces : Sweep_energy.Power_trace.kind list;
}

val default : t
(** The pinned exploration matrix (120 valid points around
    {!paper_point}) that [sweeptune explore] searches by default. *)

val valid : point -> bool
(** Constraints that make a point simulable: the store cap must exceed
    the region former's checkpoint reserve
    ({!Sweep_compiler.Regions.ckpt_reserve}) and fit the persist buffer
    (a region's quarantined stores are sealed into one buffer), the
    cache geometry must be accepted by
    {!Sweep_machine.Config.valid_geometry}, and every knob positive. *)

val compare : point -> point -> int
(** Canonical total order (axis by axis); ties only between equal
    points. *)

val points : t -> point list
(** Valid cartesian product, sorted by {!compare} and deduplicated. *)

val id : point -> string
(** Compact stable identity, e.g. ["c4096a2e64s64u4-470nF-RFOffice"].
    Injective over valid points. *)

val farads_label : float -> string
(** A capacitance with its unit, e.g. ["470nF"], ["1uF"] — the form
    {!id} and the tune reports print. *)

val label : point -> string
(** The {!Sweep_exp.Exp_common.setting} label (the non-power knobs);
    together with the job's power id it makes point×bench job keys
    unique. *)

val setting : point -> Sweep_exp.Exp_common.setting
(** SweepCache (empty-bit) setting for the point: machine config via
    {!Sweep_machine.Config.with_geometry}/[with_buffer_entries],
    compiler options via {!Sweep_compiler.Pipeline.options_for} (the
    EH-model instruction cap follows the capacitor axis). *)

val power : point -> Sweep_exp.Jobs.power_spec

val job : ?scale:float -> point -> string -> Sweep_exp.Jobs.t
(** The declarative job for one (point, bench) cell, tagged
    [exp:"tune"] — its key is what the journal and the results store
    dedup on. *)

val hw_bits : point -> int
(** Deterministic hardware-cost model (the Pareto cost axis): cache SRAM
    (data + 32-bit tag per line) + the two NVM-resident persist buffers
    (512 b data + 32 b address per entry) + SweepCache's control state
    (empty/phaseComplete bits and the two WBI tables), matching the
    §6.9 accounting. *)

val trace_of_name : string -> Sweep_energy.Power_trace.kind option
(** Inverse of {!Sweep_energy.Power_trace.kind_name}. *)

val json_fields : point -> string
(** The point as JSON object fields (no braces) — the journal/frontier
    line fragment. *)

val of_json : Sweep_util.Json.t -> point option
(** Rebuild a point from a decoded journal/frontier object (the fields
    {!json_fields} emits). *)
