(** Distributed schema changes (§3.8).

    DDL on a Citus table is propagated to every shard through the
    adaptive executor inside the same distributed transaction, so a
    multi-node DDL commits atomically via 2PC; the table's logical
    definition in {!Metadata} then changes once, for every node. *)

(** The definition a local table gives the Citus table it becomes. *)
val definition_of : Engine.Catalog.table -> Metadata.table_def

(** The statements that create one shard of a table from its logical
    definition: [CREATE TABLE] (columnar flag and primary key included),
    then one [CREATE INDEX] per secondary B-tree or GIN index, named
    [<index>_<shard id>]. Shard creation, tenant splits, shard moves and
    repairs all build a shard's schema here. *)
val shard_schema :
  Metadata.table_def -> Metadata.shard -> Sqlfront.Ast.statement list

(** [create_shards st session def shards] runs {!shard_schema} for every
    shard as adaptive-executor tasks inside [session]'s transaction, so
    each statement reaches every active placement. *)
val create_shards :
  State.t ->
  Engine.Instance.session ->
  Metadata.table_def ->
  Metadata.shard list ->
  unit

(** Utility hook for {!Engine.Instance.set_utility_hook}: [None] when the
    statement touches no Citus table. *)
val utility_hook :
  State.t ->
  Engine.Instance.session ->
  Sqlfront.Ast.statement ->
  Engine.Instance.result option
