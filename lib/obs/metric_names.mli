(** The metric-name registry: the closed, documented set of series a
    cluster can emit. Every name handed to {!Metrics} must come from
    here (enforced by lint rule L13), so [citus_stat_counters()]-style
    introspection enumerates a known catalogue and a typo cannot
    silently split a series in two.

    Constants name one series; {e families} ([net_connect_to],
    [planner_tier], …) name a parameterized group whose cardinality is
    bounded by the parameter's domain (node names, planner tiers).
    Every name is an interned {!Metrics.key}: a constant is interned
    once, when this module initialises; a family interns its name on
    each call, so a caller on a hot path keeps the key it got (the plan
    cache keeps each shape's [plancache_shape_seconds] key with the
    shape's statistics). Probe prefixes stay strings. *)

(** {2 Engine} *)

val engine_maintenance_ticks : Metrics.key
(** counter: maintenance-daemon wakeups that ran the tick body *)

val engine_probe : string -> string
(** gauge family (probe): per-instance engine internals registered at
    instance creation, e.g. [engine.<name>] row counts *)

(** {2 Networking} *)

val net_probe_prefix : string
(** probe prefix under which topology registers [net.*] gauges
    (rows shipped, messages in flight) *)

val net_connect_failed : Metrics.key
(** counter: connection attempts refused (node down / partitioned) *)

val net_connect_to : string -> Metrics.key
(** counter family: successful connects per destination node,
    [net.connect_to.<node>] *)

val net_round_trip_lost : Metrics.key
(** counter: requests dropped on the way to the node *)

val net_reply_lost : Metrics.key
(** counter: replies dropped on the way back — the statement executed,
    the client cannot know (the 2PC ambiguity) *)

val net_await_timed_out : Metrics.key
(** counter: awaits that hit their deadline before the reply landed *)

(** {2 Adaptive executor} *)

val exec_tasks : Metrics.key
(** counter: fragment tasks submitted *)

val exec_conn_opened : Metrics.key
(** counter: worker connections opened *)

val exec_conn_affinity_reuse : Metrics.key
(** counter: tasks served by an already-open affine connection *)

val exec_connections_per_statement : Metrics.key
(** histogram: distinct connections one statement used *)

val exec_fragment_seconds : Metrics.key
(** histogram: per-fragment execution time *)

val exec_makespan_seconds : Metrics.key
(** histogram: whole-statement makespan *)

val exec_timeouts : Metrics.key
(** counter: statements that hit statement_timeout *)

val exec_hedged_reads : Metrics.key
(** counter: hedge attempts fired after the slow-primary threshold *)

val exec_hedge_wins : Metrics.key
(** counter: hedges where the second attempt answered first *)

val exec_stale_txn_resets : Metrics.key
(** counter: pooled connections found in an orphaned transaction block
    and rolled back before reuse *)

val exec_worker_prepares : Metrics.key
(** counter: worker-side statements parsed — the Parse that rides with a
    cached statement's first bound execute on a connection *)

val exec_worker_bound_executes : Metrics.key
(** counter: cached single-shard statements sent as a bound execute of a
    worker-side prepared statement instead of SQL text *)

val exec_local_tasks : Metrics.key
(** counter: tasks whose placement is the coordinating node itself, run
    in the session's own transaction instead of over a connection *)

(** {2 Planner} *)

val planner_tier : string -> Metrics.key
(** counter family: statements planned per tier, [planner.tier.<slug>] *)

val planner_tier_join_order : Metrics.key
(** counter: statements that took the dynamic join-order path *)

(** {2 Distributed plan cache} *)

val plancache_hits : Metrics.key
(** counter: EXECUTEs served from a valid cached plan skeleton *)

val plancache_misses : Metrics.key
(** counter: EXECUTEs that planned the shape and filled the cache *)

val plancache_invalidations : Metrics.key
(** counter: cached entries discarded because the metadata version
    moved underneath them (DDL, shard move, rebalance, replication
    change, tenant isolation) *)

val plancache_evictions : Metrics.key
(** counter: entries dropped by the LRU bound ([citus.plan_cache_size]) *)

val plancache_bypass : Metrics.key
(** counter: EXECUTEs of shapes the cache cannot hold (multi-shard,
    reference writes, local tables) — planned per call *)

val plancache_entries : Metrics.key
(** gauge: shapes currently cached *)

val plancache_exec_seconds : Metrics.key
(** histogram: end-to-end EXECUTE time through the cached dispatch *)

val plancache_shape_seconds : string -> Metrics.key
(** histogram family: per-shape EXECUTE time,
    [plancache.shape_seconds.<fingerprint>] — the fingerprint is the
    stable 8-hex-digit shape id reported by [citus_stat_statements()];
    cardinality is bounded by the number of distinct prepared shapes *)

(** {2 Two-phase commit} *)

val twopc_started : Metrics.key
(** counter: 2PC rounds entered *)

val twopc_delegated_commits : Metrics.key
(** counter: commits delegated to a worker-local transaction *)

val twopc_prepare_failed : Metrics.key
(** counter: PREPARE fan-outs that failed and rolled back *)

val twopc_committed : Metrics.key
(** counter: participants committed in the post-commit phase *)

val twopc_commit_deferred : Metrics.key
(** counter: participants whose COMMIT PREPARED is deferred to
    recovery (stalled or unreachable at commit time) *)

val twopc_aborted : Metrics.key
(** counter: 2PC rounds aborted *)

val twopc_recover_passes : Metrics.key
(** counter: recovery sweeps over the prepared-transaction table *)

val twopc_recover_committed : Metrics.key
(** counter: prepared transactions recovery committed *)

val twopc_recover_rolled_back : Metrics.key
(** counter: prepared transactions recovery rolled back *)

(** {2 Distributed snapshot consistency} *)

val snapshot_reads : Metrics.key
(** counter: multi-fragment reads executed with a snapshot token
    (consistency level read_your_writes or snapshot) *)

val snapshot_indoubt_waits : Metrics.key
(** counter: reader encounters with an in-doubt (prepared but
    unresolved) distributed transaction *)

val snapshot_indoubt_commits : Metrics.key
(** counter: in-doubt transactions a reader resolved to COMMIT PREPARED
    from the coordinator's commit record *)

val snapshot_indoubt_rollbacks : Metrics.key
(** counter: in-doubt transactions a reader resolved to ROLLBACK
    PREPARED (coordinator aborted, no commit record) *)

val snapshot_read_retries : Metrics.key
(** counter: fragment retries after backing off on a still-pending
    in-doubt transaction *)

val snapshot_hedged_fragments : Metrics.key
(** counter: multi-shard read fragments hedged on a second replica
    after the slow-primary threshold *)

val snapshot_fragment_hedge_wins : Metrics.key
(** counter: fragment hedges where the second replica answered first *)

(** {2 Citus MX (replicated metadata, multi-coordinator)} *)

val mx_worker_coordinated_txns : Metrics.key
(** counter: distributed transactions whose 2PC was coordinated by a
    node other than the bootstrap coordinator *)

val mx_foreign_gids_resolved : Metrics.key
(** counter: prepared transactions from {e another} coordinator's gid
    namespace that a recovery pass resolved by consulting the origin
    node's commit records *)

(** {2 Distributed deadlock detector} *)

val deadlock_rounds : Metrics.key
(** counter: detector sweeps *)

val deadlock_cycles_found : Metrics.key
(** counter: wait-for cycles detected *)

val deadlock_cancelled : Metrics.key
(** counter: victim transactions cancelled to break a cycle *)

(** {2 Shard rebalancer} *)

val rebalance_moves_started : Metrics.key
(** counter: shard-group moves begun *)

val rebalance_moves_completed : Metrics.key
(** counter: shard-group moves finished *)

val rebalance_rows_copied : Metrics.key
(** counter: rows bulk-copied during moves *)

val rebalance_catchup_records : Metrics.key
(** counter: catch-up records applied after the bulk copy *)

val rebalance_repairs_failed : Metrics.key
(** counter: placement repairs that raised *)

val rebalance_placements_repaired : Metrics.key
(** counter: inactive placements re-activated by the repair daemon *)

val rebalance_move_timeouts : Metrics.key
(** counter: shard-group moves abandoned at their per-move deadline
    ([citus.move_timeout]) *)

(** {2 Health / circuit breaker} *)

val health_slow_events : Metrics.key
(** counter: statements recorded as slow against a node *)

val breaker_tripped : Metrics.key
(** gauge: breakers currently open or half-open *)

val breaker_tripped_slow : Metrics.key
(** counter: breaker trips caused by slowness (gray failure), not
    hard errors *)

val breaker_transition : from_:string -> to_:string -> Metrics.key
(** counter family: breaker state transitions,
    [breaker.<from>_to_<to>] over closed/open/half_open *)
