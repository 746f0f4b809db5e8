(* The closed set of series names the cluster can emit; see the .mli
   for the catalogue. Constants are keys interned once, at module
   initialisation; families intern a registered prefix with their
   parameter on each call, so a hot caller keeps the key it got. *)

(* engine *)
let engine_maintenance_ticks = Metrics.key "engine.maintenance_ticks"
let engine_probe name = "engine." ^ name

(* networking *)
let net_probe_prefix = "net"
let net_connect_failed = Metrics.key "net.connect_failed"
let net_connect_to node = Metrics.key ("net.connect_to." ^ node)
let net_round_trip_lost = Metrics.key "net.round_trip_lost"
let net_reply_lost = Metrics.key "net.reply_lost"
let net_await_timed_out = Metrics.key "net.await_timed_out"

(* adaptive executor *)
let exec_tasks = Metrics.key "exec.tasks"
let exec_conn_opened = Metrics.key "exec.conn_opened"
let exec_conn_affinity_reuse = Metrics.key "exec.conn_affinity_reuse"
let exec_connections_per_statement = Metrics.key "exec.connections_per_statement"
let exec_fragment_seconds = Metrics.key "exec.fragment_seconds"
let exec_makespan_seconds = Metrics.key "exec.makespan_seconds"
let exec_timeouts = Metrics.key "exec.timeouts"
let exec_hedged_reads = Metrics.key "exec.hedged_reads"
let exec_hedge_wins = Metrics.key "exec.hedge_wins"
let exec_stale_txn_resets = Metrics.key "exec.stale_txn_resets"
let exec_worker_prepares = Metrics.key "exec.worker_prepares"
let exec_worker_bound_executes = Metrics.key "exec.worker_bound_executes"
let exec_local_tasks = Metrics.key "exec.local_tasks"

(* planner *)
let planner_tier slug = Metrics.key ("planner.tier." ^ slug)
let planner_tier_join_order = Metrics.key "planner.tier.join_order"

(* distributed plan cache *)
let plancache_hits = Metrics.key "plancache.hits"
let plancache_misses = Metrics.key "plancache.misses"
let plancache_invalidations = Metrics.key "plancache.invalidations"
let plancache_evictions = Metrics.key "plancache.evictions"
let plancache_bypass = Metrics.key "plancache.bypass"
let plancache_entries = Metrics.key "plancache.entries"
let plancache_exec_seconds = Metrics.key "plancache.exec_seconds"
let plancache_shape_seconds fp = Metrics.key ("plancache.shape_seconds." ^ fp)

(* 2PC *)
let twopc_started = Metrics.key "twopc.started"
let twopc_delegated_commits = Metrics.key "twopc.delegated_commits"
let twopc_prepare_failed = Metrics.key "twopc.prepare_failed"
let twopc_committed = Metrics.key "twopc.committed"
let twopc_commit_deferred = Metrics.key "twopc.commit_deferred"
let twopc_aborted = Metrics.key "twopc.aborted"
let twopc_recover_passes = Metrics.key "twopc.recover_passes"
let twopc_recover_committed = Metrics.key "twopc.recover_committed"
let twopc_recover_rolled_back = Metrics.key "twopc.recover_rolled_back"

(* distributed snapshot consistency *)
let snapshot_reads = Metrics.key "snapshot.reads"
let snapshot_indoubt_waits = Metrics.key "snapshot.indoubt_waits"
let snapshot_indoubt_commits = Metrics.key "snapshot.indoubt_commits"
let snapshot_indoubt_rollbacks = Metrics.key "snapshot.indoubt_rollbacks"
let snapshot_read_retries = Metrics.key "snapshot.read_retries"
let snapshot_hedged_fragments = Metrics.key "snapshot.hedged_fragments"
let snapshot_fragment_hedge_wins = Metrics.key "snapshot.fragment_hedge_wins"

(* Citus MX: replicated metadata / multi-coordinator *)
let mx_worker_coordinated_txns = Metrics.key "mx.worker_coordinated_txns"
let mx_foreign_gids_resolved = Metrics.key "mx.foreign_gids_resolved"

(* rebalancer move deadlines *)
let rebalance_move_timeouts = Metrics.key "rebalance.move_timeouts"

(* deadlock detector *)
let deadlock_rounds = Metrics.key "deadlock.rounds"
let deadlock_cycles_found = Metrics.key "deadlock.cycles_found"
let deadlock_cancelled = Metrics.key "deadlock.cancelled"

(* rebalancer *)
let rebalance_moves_started = Metrics.key "rebalance.moves_started"
let rebalance_moves_completed = Metrics.key "rebalance.moves_completed"
let rebalance_rows_copied = Metrics.key "rebalance.rows_copied"
let rebalance_catchup_records = Metrics.key "rebalance.catchup_records"
let rebalance_repairs_failed = Metrics.key "rebalance.repairs_failed"
let rebalance_placements_repaired = Metrics.key "rebalance.placements_repaired"

(* health / circuit breaker *)
let health_slow_events = Metrics.key "health.slow_events"
let breaker_tripped = Metrics.key "breaker.tripped"
let breaker_tripped_slow = Metrics.key "breaker.tripped_slow"
let breaker_transition ~from_ ~to_ = Metrics.key ("breaker." ^ from_ ^ "_to_" ^ to_)
