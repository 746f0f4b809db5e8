(** Tenant isolation (§2.1).

    "Customers may need control over tenant placement to avoid issues with
    noisy neighbors. For this, Citus provides features ... to isolate a
    tenant onto its own server."

    [isolate_tenant] splits the shard group containing a tenant value into
    up to three groups — the hash values below the tenant, exactly the
    tenant's hash, and the values above — across {e every} table of the
    colocation group, so co-location is preserved. The new shards get
    their schema from {!Ddl.create_shards} and the old shard's rows back
    through {!Dist_executor.insert_rows}, in one distributed transaction
    that reaches every placement; then the old shard is dropped from
    every node that held it. The resulting single-tenant shard group can
    be moved to a dedicated node with {!Rebalancer.move_shard_group}. *)

(** [isolate_tenant st ~table ~value] returns the shard ids of the new
    tenant-only shards, one per table of the colocation group (the first
    belongs to [table]). Raises on reference tables. *)
val isolate_tenant :
  State.t -> table:string -> value:Datum.t -> int list

(** Convenience: isolate and immediately move the tenant's shard group to
    [to_node]. *)
val isolate_tenant_to_node :
  State.t -> table:string -> value:Datum.t -> to_node:string ->
  Rebalancer.move
