(** Deterministic metrics registry: counters, gauges, exact histograms,
    and snapshot-time probes that fold external counter sets (engine
    meters, network stats) into one namespace.

    No ambient time or randomness — all values originate from the
    simulation, so two same-seed runs produce identical snapshots. *)

type t

(** An interned series name. {!key} resolves a name once per process to
    an index into every registry's counter, gauge and histogram arrays,
    so {!inc} and {!observe} hash no string. Names come from
    {!Metric_names}, which interns each constant once. *)
type key

val key : string -> key

val key_name : key -> string

type hist_summary = {
  count : int;
  sum : float;
  p50 : float;
  p95 : float;
  max : float;
}

(** Point-in-time view; every list sorted by name for determinism. *)
type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_summary) list;
}

val create : unit -> t

(** Monotonic counter increment (creates the counter at 0 on first use). *)
val inc : ?by:int -> t -> key -> unit

val counter_value : t -> key -> int

val gauge_add : t -> key -> float -> unit

val gauge_set : t -> key -> float -> unit

val gauge_value : t -> key -> float

(** Record one observation into the named histogram. *)
val observe : t -> key -> float -> unit

(** [register_probe t prefix f]: at snapshot time [f ()]'s counters are
    folded in under ["<prefix>.<key>"]. *)
val register_probe : t -> string -> (unit -> (string * int) list) -> unit

val snapshot : t -> snapshot

(** Stable one-line-per-metric text form ("name value"), used by
    [citus_stat_counters()] and the determinism checks. *)
val render : snapshot -> string
