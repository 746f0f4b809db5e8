(** Per-node work counters.

    The executor reports logical work here; the simulation layer combines
    these with buffer-pool miss counts and connection round trips to compute
    resource demands. Counters are cumulative; callers snapshot and diff. *)

type t

(** A copy of the counters at one moment. *)
type snapshot = {
  mutable rows_scanned : int;  (** tuples examined by scans *)
  mutable rows_written : int;  (** tuples inserted / deleted / updated *)
  mutable index_probes : int;  (** B-tree / GIN lookups *)
  mutable index_updates : int;  (** index entry insertions/removals *)
  mutable rows_sorted : int;
  mutable rows_aggregated : int;
  mutable statements : int;
  mutable light_statements : int;
      (** BEGIN/COMMIT/ROLLBACK: much cheaper than a planned statement *)
  mutable routed_statements : int;
      (** statements the extension routed elsewhere: the local node only
          paid parse + shard pruning *)
  mutable bound_executes : int;
      (** EXECUTEs of a prepared statement served from the distributed
          plan cache: the local node only paid parameter binding plus a
          hash — no parse, no planning *)
  mutable twopc_statements : int;
      (** PREPARE TRANSACTION / COMMIT PREPARED / ROLLBACK PREPARED:
          moderately expensive (durable transaction state) *)
  mutable copy_rows : int;  (** rows parsed by COPY (coordinator-side CPU) *)
  mutable merge_rows : int;
      (** partial rows materialized + merged by the coordinator's merge
          step — inherently serial (the CustomScan of Figure 5) *)
}

val create : unit -> t

val read : t -> snapshot

val diff : after:snapshot -> before:snapshot -> snapshot

(** Snapshot as (field, value) pairs in stable declaration order — the
    shape the {!Obs.Metrics} registry folds in via a probe. *)
val to_assoc : snapshot -> (string * int) list

val zero : snapshot

val add_scanned : t -> int -> unit

val add_written : t -> int -> unit

val add_probe : t -> int -> unit

val add_index_update : t -> int -> unit

val add_sorted : t -> int -> unit

val add_aggregated : t -> int -> unit

val add_statement : t -> unit

val add_light_statement : t -> unit

val add_routed_statement : t -> unit

val add_bound_execute : t -> unit

val add_twopc_statement : t -> unit

val add_copy_rows : t -> int -> unit

val add_merge_rows : t -> int -> unit

(** CPU units charged per merged row (used by the simulation layer to
    separate the serial merge phase). *)
val merge_row_weight : float

val total_cpu_units : snapshot -> float
(** Weighted sum of counters in abstract CPU units (used by the sim layer;
    weights documented in the implementation). *)

(** [units_since t before] is [total_cpu_units (diff ~after:(read t) ~before)],
    bit for bit, with no snapshot built. *)
val units_since : t -> snapshot -> float
