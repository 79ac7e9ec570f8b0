(** Synthetic ambient-power traces.

    The paper evaluates with two real RF traces (RFHome, RFOffice) plus
    solar and thermal sources.  Real traces are unavailable, so we
    generate seeded synthetic ones whose *statistics* match the roles the
    paper gives them: RF sources are bursty on/off processes; solar varies
    slowly; thermal is nearly constant.  All four share a similar mean
    power so that differences in results come from stability, not budget
    (see DESIGN.md, substitutions). *)

type kind = Rf_home | Rf_office | Solar | Thermal

val kind_name : kind -> string
val all_kinds : kind list

type t

val make : ?seed:int -> kind -> t
(** Deterministic for a given seed (default 42).  Traces cover ~60 s at
    100 µs resolution and wrap around beyond that. *)

val kind : t -> kind

val power : t -> float -> float
(** [power t time_s] in watts. *)

val samples : t -> float array
(** The raw sample grid (watts).  With {!sample_dt} and {!ensure}, lets
    the driver's per-instruction loop do the {!power} lookup inline —
    index [((idx mod n) + n) mod n] for [idx = time_s / sample_dt] —
    without a float-boxing call per instruction.  A trace from {!make}
    or {!load_csv} is complete; a {!jitter}ed one is generated on
    demand, so only a sample passed to {!ensure} may be read. *)

val ensure : t -> int -> unit
(** [ensure t i] makes sample [i] (in [\[0, n)]) of {!samples} readable,
    from any domain: on a {!jitter}ed trace it generates every sample
    up to [i] that is not yet generated, under the trace's own lock,
    and publishes them before returning.  A no-op on a complete trace,
    and on a jittered one once [i] is generated; it returns [unit] so a
    hot loop can call it without boxing a float. *)

val sample_dt : t -> float
(** Grid spacing of {!samples} in seconds (100 µs). *)

val tag : t -> string option
(** Transform provenance: [None] for a trace straight out of {!make} or
    {!load_csv}; set by a caller (see {!with_tag}) after {!jitter}, and
    folded into the canonical power key by the experiment layer so two
    differently-jittered copies of the same base trace can never
    alias. *)

val with_tag : t -> string -> t
(** Label a (typically transformed) trace.  The tag becomes part of job
    keys downstream, so it must not contain ['|'], ['/'] or spaces. *)

(** {2 Jitter} *)

val jitter :
  t -> shift_s:float -> factor:float -> drop_seed:int -> drop_frac:float -> t
(** Per-device jitter for fleet simulation: [t] rotated right by
    [shift_s] seconds, rounded to the 100 µs grid (the result at time x
    reads [t] at x - shift_s, wrapping at the trace's end), every
    amplitude multiplied by [factor], then each sample zeroed
    independently with probability [drop_frac] — momentary harvester
    blackouts, drawn in sample order over the rotated grid from a
    stream seeded by [drop_seed].  Samples are zeroed, never removed,
    so the time grid is untouched, and [t] is never mutated.  The
    result keeps [t]'s tag; label it with {!with_tag}.

    The result is lazy: samples are generated in index order, a chunk
    at a time, on first read ({!power}, {!ensure}, or a whole-trace
    function), under a lock private to the trace — one jittered trace
    may be shared by several domains.  Each sample is bit-identical to
    rotating, scaling and dropping the whole trace in three eager
    passes.

    Raises [Failure] when [shift_s] is negative or not finite (a left
    shift would need negative timestamps before the wrap), when
    [factor] is negative or not finite (negative harvested power has no
    physical meaning), or when [drop_frac] is outside [\[0, 1\]] or not
    finite. *)

val mean_power : t -> float

val duty_cycle : t -> float
(** Fraction of samples with non-negligible power — a burstiness
    indicator (RF ≈ 0.4–0.5, solar/thermal ≈ 1.0). *)

val save_csv : t -> string -> unit
(** Write the trace as "time_s,power_w" rows — for plotting, or for
    feeding a measured trace back in through {!load_csv}. *)

val load_csv : ?kind:kind -> string -> t
(** Read a "time_s,power_w" CSV (header line optional).  Samples are
    resampled onto the trace's native 100 µs grid by zero-order hold;
    [kind] labels the result (default [Rf_office]).  Raises [Failure] on
    a malformed file, an empty trace, or a negative / non-monotonic
    timestamp column (which would silently corrupt the resampling and
    every outage count derived from it). *)
