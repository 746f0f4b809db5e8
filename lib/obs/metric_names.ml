(* The closed set of series names the cluster can emit; see the .mli
   for the catalogue. Constants are plain strings; families concatenate
   a registered prefix with their parameter. *)

(* engine *)
let engine_maintenance_ticks = "engine.maintenance_ticks"
let engine_probe name = "engine." ^ name

(* networking *)
let net_probe_prefix = "net"
let net_connect_failed = "net.connect_failed"
let net_connect_to node = "net.connect_to." ^ node
let net_round_trip_lost = "net.round_trip_lost"
let net_reply_lost = "net.reply_lost"
let net_await_timed_out = "net.await_timed_out"

(* adaptive executor *)
let exec_tasks = "exec.tasks"
let exec_conn_opened = "exec.conn_opened"
let exec_conn_affinity_reuse = "exec.conn_affinity_reuse"
let exec_connections_per_statement = "exec.connections_per_statement"
let exec_fragment_seconds = "exec.fragment_seconds"
let exec_makespan_seconds = "exec.makespan_seconds"
let exec_timeouts = "exec.timeouts"
let exec_hedged_reads = "exec.hedged_reads"
let exec_hedge_wins = "exec.hedge_wins"
let exec_stale_txn_resets = "exec.stale_txn_resets"
let exec_worker_prepares = "exec.worker_prepares"
let exec_worker_bound_executes = "exec.worker_bound_executes"
let exec_local_tasks = "exec.local_tasks"

(* planner *)
let planner_tier slug = "planner.tier." ^ slug
let planner_tier_join_order = "planner.tier.join_order"

(* distributed plan cache *)
let plancache_hits = "plancache.hits"
let plancache_misses = "plancache.misses"
let plancache_invalidations = "plancache.invalidations"
let plancache_evictions = "plancache.evictions"
let plancache_bypass = "plancache.bypass"
let plancache_entries = "plancache.entries"
let plancache_exec_seconds = "plancache.exec_seconds"
let plancache_shape_seconds fp = "plancache.shape_seconds." ^ fp

(* 2PC *)
let twopc_started = "twopc.started"
let twopc_delegated_commits = "twopc.delegated_commits"
let twopc_prepare_failed = "twopc.prepare_failed"
let twopc_committed = "twopc.committed"
let twopc_commit_deferred = "twopc.commit_deferred"
let twopc_aborted = "twopc.aborted"
let twopc_recover_passes = "twopc.recover_passes"
let twopc_recover_committed = "twopc.recover_committed"
let twopc_recover_rolled_back = "twopc.recover_rolled_back"

(* distributed snapshot consistency *)
let snapshot_reads = "snapshot.reads"
let snapshot_indoubt_waits = "snapshot.indoubt_waits"
let snapshot_indoubt_commits = "snapshot.indoubt_commits"
let snapshot_indoubt_rollbacks = "snapshot.indoubt_rollbacks"
let snapshot_read_retries = "snapshot.read_retries"
let snapshot_hedged_fragments = "snapshot.hedged_fragments"
let snapshot_fragment_hedge_wins = "snapshot.fragment_hedge_wins"

(* Citus MX: replicated metadata / multi-coordinator *)
let mx_config_syncs = "mx.config_syncs"
let mx_worker_coordinated_txns = "mx.worker_coordinated_txns"
let mx_foreign_gids_resolved = "mx.foreign_gids_resolved"

(* rebalancer move deadlines *)
let rebalance_move_timeouts = "rebalance.move_timeouts"

(* deadlock detector *)
let deadlock_rounds = "deadlock.rounds"
let deadlock_cycles_found = "deadlock.cycles_found"
let deadlock_cancelled = "deadlock.cancelled"

(* rebalancer *)
let rebalance_moves_started = "rebalance.moves_started"
let rebalance_moves_completed = "rebalance.moves_completed"
let rebalance_rows_copied = "rebalance.rows_copied"
let rebalance_catchup_records = "rebalance.catchup_records"
let rebalance_repairs_failed = "rebalance.repairs_failed"
let rebalance_placements_repaired = "rebalance.placements_repaired"

(* health / circuit breaker *)
let health_slow_events = "health.slow_events"
let breaker_tripped = "breaker.tripped"
let breaker_tripped_slow = "breaker.tripped_slow"
let breaker_transition ~from_ ~to_ = "breaker." ^ from_ ^ "_to_" ^ to_
