(** Distributed schema changes (§3.8).

    DDL on a Citus table is applied to the coordinator's local schema copy
    first (keeping future shards consistent) and then propagated to every
    shard through the adaptive executor inside the same distributed
    transaction, so a multi-node DDL commits atomically via 2PC. *)

(** The statements that create one shard of the table a definition
    describes: [CREATE TABLE] (columnar flag and primary key included),
    then one [CREATE INDEX] per secondary B-tree or GIN index, named
    [<index>_<shard id>]. The definition is the logical table's or that
    of any of its shards (whose index names carry that shard's suffix).
    Shard creation, tenant splits, shard moves and repairs all build a
    shard's schema here. *)
val shard_schema :
  Engine.Catalog.table -> Metadata.shard -> Sqlfront.Ast.statement list

(** [create_shards st session src shards] runs {!shard_schema} for every
    shard as adaptive-executor tasks inside [session]'s transaction, so
    each statement reaches every active placement. *)
val create_shards :
  State.t ->
  Engine.Instance.session ->
  Engine.Catalog.table ->
  Metadata.shard list ->
  unit

(** Utility hook for {!Engine.Instance.set_utility_hook}: [None] when the
    statement touches no Citus table. *)
val utility_hook :
  State.t ->
  Engine.Instance.session ->
  Sqlfront.Ast.statement ->
  Engine.Instance.result option
