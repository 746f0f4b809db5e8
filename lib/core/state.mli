(** Runtime state of the Citus extension on one node.

    Holds the metadata reference, per-(coordinator-)session connection
    pools with shard affinity, the cluster-wide shared connection counters
    the adaptive executor respects (§3.6.1), the distributed-transaction
    bookkeeping that 2PC and the distributed deadlock detector consume
    (§3.7), and a network-partition switch used for failure-injection
    tests. *)

(** Distributed read consistency level (the [citus.consistency] knob):
    - [Eventual]: plain per-node MVCC; a multi-node read can observe a
      distributed transaction on some nodes and not others (torn read).
    - [Read_your_writes]: reads block on in-doubt (prepared)
      transactions until their 2PC outcome resolves, so an acknowledged
      distributed commit is never half-visible — but two fragments may
      still disagree about transactions committed {e while} the read
      runs.
    - [Snapshot]: every fragment of a multi-shard read runs at one HLC
      snapshot timestamp — cross-node reads are never torn. *)
type consistency = Eventual | Read_your_writes | Snapshot

val consistency_of_string : string -> consistency option

val consistency_to_string : consistency -> string

type config = {
  mutable pool_size_per_node : int;
      (** max connections one session opens to one worker *)
  mutable shared_connection_limit : int;
      (** cluster-wide cap of connections to one worker across sessions *)
  mutable slow_start_interval : float;  (** seconds; paper: 10ms *)
  mutable max_parallel_moves : int;
      (** rebalancer: shard-group moves allowed in flight at once *)
  mutable statement_timeout : float;
      (** seconds of virtual time a distributed statement may run before
          failing with a typed timeout; [0.0] (default) disables — the
          [statement_timeout] GUC of the paper's production story *)
  mutable hedge_threshold : float;
      (** seconds a read may wait on one replica before the executor
          hedges it on another replica (first response wins, loser
          cancelled); applies per fragment, so each slow fragment of a
          multi-shard scatter-gather read hedges independently — writes
          never hedge; [0.0] (default) disables hedging *)
  mutable move_timeout : float;
      (** seconds of virtual time one rebalancer shard move may take
          before it is abandoned (copy fenced off, destination dropped);
          [0.0] (default) disables — a stalled destination then wedges
          the move slot for the stall's duration *)
  mutable consistency : consistency;
      (** distributed read consistency level; default [Eventual] *)
  mutable plan_cache_size : int;
      (** LRU bound on cached prepared-statement plan shapes
          ([citus.plan_cache_size]); [0] disables the distributed plan
          cache — every EXECUTE then re-plans; default 128 *)
}

(** A new cluster's settings (the defaults noted above). *)
val default_config : unit -> config

type session_state = {
  skey : string * int;  (** (node name, session id) *)
  mutable pools : (string * Cluster.Connection.t list) list;
      (** per target node, open connections *)
  mutable affinity : ((string * int) * Cluster.Connection.t) list;
      (** (node, shard-group index) -> connection, §3.6.1: a transaction
          pins each shard group replica to one connection *)
  mutable txn_conns : Cluster.Connection.t list;
      (** connections with an open BEGIN for the current coordinator txn *)
  mutable prepared : (Cluster.Connection.t * string) list;
      (** prepared (conn, gid) pairs awaiting COMMIT PREPARED *)
  mutable dist_xids : (string * int) list;
      (** (node, backend xid) members of the current distributed txn *)
  mutable commit_hlc : Txn.Hlc.timestamp option;
      (** coordinator-assigned HLC commit timestamp of the current
          distributed transaction, drawn after every participant
          prepared; [Twopc.post_commit] stamps it onto each COMMIT
          PREPARED so the transaction becomes visible at one timestamp
          cluster-wide *)
}

type t = {
  cluster : Cluster.Topology.t;
  metadata : Metadata.t;
      (** the cluster's one catalog, shared by every node running the
          extension (MX): a catalog change is seen everywhere at once *)
  local : Cluster.Topology.node;  (** node this extension instance runs on *)
  config : config;
      (** the cluster's one runtime settings record, shared like
          [metadata]: a setting changed anywhere applies everywhere *)
  health : Health.t;
      (** per-node circuit breakers fed by [Exec.on_conn_exn]; the planner
          and executors consult it for placement preference and retry
          backoff *)
  sessions : ((string * int), session_state) Hashtbl.t;
  mutable recent : (Engine.Instance.session * session_state) option;
      (** the last session looked up, so a session's run of statements
          hashes no key *)
  shared_counters : (string, int ref) Hashtbl.t;
  registry : ((string * int), string * int) Hashtbl.t;
      (** (worker node, backend xid) -> (coordinator node, coordinator xid):
          which distributed transaction a worker transaction belongs to.
          Shared cluster-wide; the distributed deadlock detector merges
          per-node wait edges through it (§3.7.3). *)
  mutable partitioned : string list;  (** unreachable nodes (failure injection) *)
  mutable injected_failures : (string * string) list;
      (** (node, SQL substring) pairs: matching statements fail with
          {!Network_error} — lets tests break 2PC at exact points *)
  mutable next_gid_seq : int;
}

exception Network_error of string

(** A transaction connection failed and one of the shard groups it had
    written has no other active replica: the transaction cannot continue
    without silently losing those writes, so it must abort. Carries the
    node name. Raised by the adaptive executor, mapped to a typed error
    by [Exec.wrap]. *)
exception Txn_replica_lost of string

val create :
  cluster:Cluster.Topology.t ->
  metadata:Metadata.t ->
  config:config ->
  local:Cluster.Topology.node ->
  registry:((string * int), string * int) Hashtbl.t ->
  t

(** Session bookkeeping, created on demand. *)
val session_state : t -> Engine.Instance.session -> session_state

(** Connections currently counted against a worker's shared limit. *)
val shared_count : t -> string -> int

(** [checkout t st node] opens one more connection to [node] and adds it
    to the session pool, if the per-session pool size and the cluster-wide
    shared limit allow; [force] bypasses the limits (the first connection a
    statement cannot do without). Returns [None] when at a limit. *)
val checkout :
  t -> session_state -> ?force:bool -> Cluster.Topology.node -> Cluster.Connection.t option

(** All pool connections of the session to [node]. *)
val pool_of : session_state -> string -> Cluster.Connection.t list

(** The session's first pooled connection to [node], or a forced
    {!checkout} of one when the pool is empty. *)
val pooled_connection : t -> session_state -> string -> Cluster.Connection.t

(** [runs_locally t session node]: [node] is this node and [session] one
    of its sessions, so a task placed there runs locally. *)
val runs_locally : t -> Engine.Instance.session -> string -> bool

(** Network-simulation guards, used by [Exec]'s raising primitives:
    [check_reachable] raises {!Network_error} when the node is
    partitioned away; [check_injected] raises it when the statement
    matches an {!inject_failure} pattern for the node. *)
val check_reachable : t -> string -> unit

val check_injected : t -> string -> string -> unit

(** [with_sched t f] runs [f] under a {!Sim.Sched} wired to this
    cluster: the topology's [sched_seed] orders ready-queue tiebreaks
    and every virtual-clock jump fires {!Cluster.Topology.fault_tick},
    so scheduled faults interleave with fibers at their virtual times.
    For the run's extent the cluster's {!Cluster.Topology.driver} is
    [Fibers] of it (injected latency passes as fiber sleeps) and each
    suspension point draws from the fault plan's suspension hazard. *)
val with_sched : t -> (Sim.Sched.t -> 'a) -> 'a

(** [false] while the node's circuit breaker is open. *)
val node_available : t -> string -> bool

(** [with_retry t ~node f] runs [f], retrying up to [attempts] times on
    {!Network_error} / {!Cluster.Connection.Node_unavailable} with the
    breaker's backoff — stretched by a bounded, seeded jitter draw
    ({!Cluster.Topology.retry_jitter}) so retry storms de-synchronize —
    advanced on the simulated clock between attempts. Re-raises after
    the last attempt. *)
val with_retry : ?attempts:int -> t -> node:string -> (unit -> 'a) -> 'a

(** Fresh global transaction identifier in this node's namespace:
    citus_<node-name>_<xid>_<seq> (MX: every coordinating node mints
    gids independently; the name identifies whose commit records decide
    the transaction). *)
val fresh_gid : t -> coord_xid:int -> string

(** Parse a gid back into (coordinating node name, coordinator xid). *)
val parse_gid : string -> (string * int) option

(** Fail statements containing [matching] sent to [node] (tests: break a
    2PC between PREPARE and COMMIT PREPARED, etc.). *)
val inject_failure : t -> node:string -> matching:string -> unit

val clear_failures : t -> unit

(** Sever / restore connectivity to a node (tests, §3.7.2 recovery). *)
val partition_node : t -> string -> unit

val heal_node : t -> string -> unit

(** Reachability of [name] from this node: not partitioned away by
    {!partition_node} and, when the cluster has a fault plan attached,
    alive with both link directions intact
    ({!Cluster.Topology.route_up}). *)
val reachable : t -> string -> bool

(** Drop all session pools (used when simulating coordinator restart). *)
val reset_sessions : t -> unit

(** [purge_node_conns t node] drops pooled connections to a crashed
    node and releases their shared-counter slots. Transaction-pinned
    connections ([txn_conns] / [affinity]) are kept so in-flight
    distributed transactions fail visibly instead of silently losing a
    participant. *)
val purge_node_conns : t -> string -> unit

(** This node crashed: abort worker-side transactions whose client
    sessions just died (prepared ones survive), then drop all session
    bookkeeping. *)
val crash_local_sessions : t -> unit

(** Leak accounting for the chaos invariants: connections still pinned
    to a transaction, and (conn, gid) pairs still awaiting COMMIT
    PREPARED, summed across sessions. Both must be zero once every
    statement has completed or been cancelled and all transactions have
    resolved. *)
val leaked_txn_conns : t -> int

val leaked_prepared : t -> int
