(** The metadata-sync layer (Citus MX): replicates the distributed
    catalog to every metadata-synced node so any node can plan
    fast-path/router queries and open 2PC as a coordinator.

    Every catalog mutation must flow through the sanctioned mutators
    below (lint rule L16 flags direct {!Metadata} writes outside this
    module): each one applies to the origin catalog and to every synced
    replica in the same order, keeping the replicas bit-identical —
    shard ids, colocation ids and {!Metadata.version} advance in
    lockstep, so worker-local planning routes like the coordinator and
    the shared plan cache invalidates cluster-wide on every DDL or
    placement change. An op log replays the full history into nodes
    that attach after tables were already distributed. *)

type t

(** [create ~metrics origin] wraps the bootstrap coordinator's catalog.
    Sync writes count against [Obs.Metric_names.mx_metadata_syncs]. *)
val create : metrics:Obs.Metrics.t -> Metadata.t -> t

val origin : t -> Metadata.t

(** [attach t node] creates (or returns) [node]'s catalog replica,
    replaying the op log to catch it up. *)
val attach : t -> string -> Metadata.t

val replica : t -> string -> Metadata.t option

(** {2 Sanctioned catalog mutators}

    Same signatures and results as their {!Metadata} counterparts
    (results come from the origin catalog); each call is propagated to
    every synced replica and logged for late joiners. *)

val register_distributed :
  ?replication_factor:int ->
  t ->
  table:string ->
  column:string ->
  ty:Datum.ty ->
  colocate_with:string option ->
  nodes:string list ->
  Metadata.shard list

val register_reference :
  t -> table:string -> nodes:string list -> Metadata.shard

val drop_table : t -> string -> unit

val mark_placement :
  t -> shard_id:int -> node:string -> Metadata.placement_state -> unit

val update_placement :
  t -> shard_id:int -> from_node:string -> to_node:string -> unit

val add_placement : t -> shard_id:int -> node:string -> unit

val replace_shard :
  t -> shard_id:int -> ranges:(int32 * int32) list -> Metadata.shard list

val renumber_colocation : t -> colocation_id:int -> unit

val bump_version : t -> unit
