(** Citus distributed-table metadata: the pg_dist_* catalogs (§3.3).

    Distributed tables are hash-partitioned on a distribution column into
    shards owning contiguous int32 hash ranges. Co-located tables share a
    colocation group: same shard count, same ranges, aligned placements, so
    relational operations on the distribution column never cross nodes.
    Reference tables have a single shard placed on every node. *)

type kind = Distributed | Reference

(** A secondary index of a Citus table; shard [s] holds it as
    [<ix_name>_<s's id>]. *)
type index_def = {
  ix_name : string;
  ix_using : Sqlfront.Ast.index_method;
  ix_columns : string list;  (** B-tree key columns *)
  ix_expr : Sqlfront.Ast.expr option;  (** GIN trigram key expression *)
}

(** A Citus table's logical definition, held once for the cluster: every
    node plans from it and builds shards from it, and no node keeps a
    local copy of the logical table. *)
type table_def = {
  columns : Sqlfront.Ast.column_def list;
  primary_key : string list;
  columnar : bool;
  indexes : index_def list;  (** secondary indexes, in creation order *)
}

type dist_table = {
  dt_name : string;
  dist_column : string option;  (** [None] for reference tables *)
  colocation_id : int;
  kind : kind;
  def : table_def;
}

type shard = {
  shard_id : int;
  shard_of : string;  (** logical table name *)
  min_hash : int32;
  max_hash : int32;  (** inclusive *)
  index_in_colocation : int;  (** position among the table's shards *)
}

(** Placement health, mirroring Citus shardstate 1 (active) / 3
    (inactive): an [Inactive] placement missed a replicated write and must
    not serve reads until the repair daemon re-copies it. *)
type placement_state = Active | Inactive

type placement = { pl_node : string; mutable pl_state : placement_state }

type t

val create : ?shard_count:int -> unit -> t

(** {2 Metadata version}

    A monotonic counter bumped by every mutation that can invalidate a
    cached distributed plan: table registration, schema change and drop,
    placement moves / additions / health flips, shard splits and
    renumbering. The replication-factor knob, which changes
    placement-relevant state outside this module, calls {!bump_version}
    explicitly. The plan cache records the version at plan time and
    revalidates on mismatch — a stale cached deparse must never run. *)

val version : t -> int

val bump_version : t -> unit

(** {2 Registration} *)

exception Not_distributed of string

(** Inconsistent catalog state: an unknown shard id, or a shard whose
    every replica is lost. Typed so executors can tell a metadata bug
    from a node failure (the former must never be retried on another
    replica). *)
exception Catalog_error of string

(** [register_distributed t ~table ~column ~def ~colocate_with ~nodes]
    records [def], creates shard metadata and round-robin placements over
    [nodes]; with [replication_factor] > 1 each shard is additionally
    placed on the next rf-1 nodes (statement-based replication, capped
    at the node count). With [colocate_with], ranges and placements are
    copied from the other table so the shards align. Returns the new
    shards in range order. *)
val register_distributed :
  ?replication_factor:int ->
  t ->
  table:string ->
  column:string ->
  def:table_def ->
  colocate_with:string option ->
  nodes:string list ->
  shard list

(** Reference table: one shard placed on every node. *)
val register_reference :
  t -> table:string -> def:table_def -> nodes:string list -> shard

val drop_table : t -> string -> unit

(** Schema DDL: replace the table's definition by [f] of it and bump
    the version. Raises {!Not_distributed} for an unknown table. *)
val alter : t -> table:string -> (table_def -> table_def) -> unit

(** {2 Lookup} *)

val find : t -> string -> dist_table option

val is_citus_table : t -> string -> bool

val all_tables : t -> dist_table list

val column_names : dist_table -> string list

(** Position of a column in the table's definition. *)
val column_index : dist_table -> string -> int option

(** The distribution column's type; [None] for a reference table. *)
val dist_column_ty : dist_table -> Datum.ty option

val shards_of : t -> string -> shard list
(** In hash-range order. Raises {!Not_distributed} for unknown tables. *)

(** The hash [table] routes [value] by: [value] is cast to the
    distribution column's type ({!dist_column_ty}) first, so a quoted
    ['5'] hashes like the bigint [5]; a value the type cannot hold hashes
    as given. *)
val hash_of_value : t -> table:string -> Datum.t -> int32

(** The shard of [table] owning {!hash_of_value}. *)
val shard_for_value : t -> table:string -> Datum.t -> shard

(** Physical table name of a shard on its node ("orders_102008"). *)
val shard_name : shard -> string

(** Nodes holding an {e active} placement of a shard. Raises
    {!Catalog_error} if none is active (every replica lost). *)
val placements : t -> int -> string list

val placement : t -> int -> string
(** First active placement of a shard. Raises {!Catalog_error} if none. *)

(** Every placement record of a shard, regardless of state. Raises
    {!Catalog_error} for an unknown shard id. *)
val all_placements : t -> int -> placement list

val placement_state_of :
  t -> shard_id:int -> node:string -> placement_state option

(** Flip a placement's health state (write failure marks it [Inactive];
    shard repair marks it [Active] again). *)
val mark_placement : t -> shard_id:int -> node:string -> placement_state -> unit

val shard_by_id : t -> int -> shard option

(** The shards colocated with [shard] (same group index across its
    colocation group, itself included); a reference shard stands alone. *)
val colocated_shards : t -> shard -> shard list

(** Every [Inactive] placement, as (shard, node) pairs — the repair
    daemon's work list. *)
val inactive_placements : t -> (shard * string) list

(** Pick the serving node for a shard: first active placement passing
    [node_ok], else the first active one. *)
val select_placement : ?node_ok:(string -> bool) -> t -> int -> string

(** Move a shard's placement (rebalancer); the moved placement is Active. *)
val update_placement : t -> shard_id:int -> from_node:string -> to_node:string -> unit

(** Add an Active placement (reference table on a new node). *)
val add_placement : t -> shard_id:int -> node:string -> unit

(** Do all these tables belong to one colocation group (reference tables
    are compatible with anything)? *)
val colocated : t -> string list -> bool

(** Shard groups of a colocation id: for group index [i], the i-th shard of
    every distributed table in the group lives on the same node.
    Returns (group_index, node, (table, shard) list) per group; the node is
    chosen with {!select_placement}. *)
val shard_groups :
  ?node_ok:(string -> bool) ->
  t -> tables:string list -> (int * string * (string * shard) list) list

(** All nodes appearing in placements. *)
val nodes_in_use : t -> string list

(** Shards placed on a node (distributed tables only). *)
val shards_on_node : t -> string -> shard list

(** {2 Shard splitting (tenant isolation, §2.1)} *)

(** Replace one shard with new shards covering [ranges] (placements
    inherited). The caller moves the data and must call
    {!renumber_colocation} afterwards. *)
val replace_shard :
  t -> shard_id:int -> ranges:(int32 * int32) list -> shard list

(** Re-assign group indexes by range order across every table of the
    colocation group (ranges are identical within a group, so this keeps
    co-location intact). *)
val renumber_colocation : t -> colocation_id:int -> unit
