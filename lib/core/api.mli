(** The Citus extension entry point.

    [install] loads the extension into a cluster's coordinator: it
    registers the planner / utility / COPY hooks, the transaction
    callbacks, the maintenance daemon (2PC recovery + distributed deadlock
    detection), and the user-facing UDFs:

    - [SELECT create_distributed_table('t', 'col')]
    - [SELECT create_distributed_table('t', 'col', 'colocate_with_table')]
    - [SELECT create_reference_table('t')]
    - [SELECT create_distributed_function('proc', arg_position, 'table')]
    - [SELECT citus_add_node('worker5')]
    - [SELECT rebalance_table_shards()]

    [enable_metadata_sync] installs the same hooks on every active worker
    sharing the same metadata, turning each worker into a coordinator for
    the queries it receives (§3.2.1); clients then load-balance with
    {!connect_via}. *)

type t = {
  cluster : Cluster.Topology.t;
  metadata : Metadata.t;
      (** the cluster's one catalog, shared by every node running the
          extension (MX, §3.2.1) *)
  config : State.config;
      (** the cluster's one runtime settings record, shared the same way:
          [citus_set_config] sets it once, on any node *)
  registry : ((string * int), string * int) Hashtbl.t;
  mutable states : State.t list;  (** one per node running the extension *)
  mutable active_data_nodes : string list;
  mutable replication_factor : int;
      (** placements per shard for subsequently created distributed tables
          (citus.shard_replication_factor); capped at the node count *)
  procedures : (string, int * string) Hashtbl.t;
      (** delegated procedures: name -> (1-based dist arg position, table) *)
  plancache : Plancache.t;
      (** cluster-wide distributed plan cache, validated against
          {!Metadata.version} at every cached EXECUTE *)
}

(** Install on the coordinator. [active_workers] limits initial shard
    placement to the first n workers (the rest join via [citus_add_node]).
    [shard_count] defaults to 32. *)
val install :
  ?shard_count:int -> ?active_workers:int -> Cluster.Topology.t -> t

val coordinator_state : t -> State.t

(** Session on the coordinator (the normal client entry point). *)
val connect : t -> Engine.Instance.session

(** Session on an arbitrary node — requires metadata sync for that node to
    plan distributed queries itself. *)
val connect_via : t -> Cluster.Topology.node -> Engine.Instance.session

(** Turn every active worker into a coordinator (§3.2.1). *)
val enable_metadata_sync : t -> unit

(** Run every node's maintenance daemon once (autovacuum, local deadlock
    detection, 2PC recovery, distributed deadlock detection). *)
val maintenance : t -> unit

(** Direct API equivalents of the UDFs (used by OCaml callers). *)
val create_distributed_table :
  t -> table:string -> column:string -> ?colocate_with:string -> unit -> unit

val create_reference_table : t -> table:string -> unit

val create_distributed_function :
  t -> proc:string -> arg_position:int -> table:string -> unit

(** Replication factor for tables created afterwards (also available as
    [SELECT citus_set_replication_factor(n)]). *)
val set_replication_factor : t -> int -> unit

(** Execute, retrying on {!Engine.Executor.Would_block} with a maintenance
    tick and a deterministic {!Sim.Clock} backoff between attempts (the
    deadlock detector may abort a cycle member, releasing the lock); the
    backoff carries a bounded seeded jitter draw so contending retriers
    de-synchronize. On final give-up the session transaction's pending
    lock waits are withdrawn, on its own node and on every worker its
    distributed transaction reached, so an abandoned waiter never feeds
    stale edges to the deadlock detector, before the conflict
    propagates.
    Re-raises after [attempts]. *)
val exec_with_retries :
  t -> Engine.Instance.session -> ?attempts:int -> string ->
  Engine.Instance.result

(** Like {!exec_with_retries}, also returning how many attempts the
    statement took (1 = no conflict). *)
val exec_with_retries_report :
  t -> Engine.Instance.session -> ?attempts:int -> string ->
  Engine.Instance.result * int
