(* Placement health, replica failover, and self-healing shard repair:
   circuit breaker lifecycle, replication-factor placements, reads/writes
   surviving a lost replica, the repair daemon restoring Inactive
   placements, and 2PC commit-drain accounting. *)

let make ?(workers = 3) ?(shard_count = 4) () =
  let cluster = Cluster.Topology.create ~workers () in
  let citus = Citus.Api.install ~shard_count cluster in
  let s = Citus.Api.connect citus in
  (cluster, citus, s)

let exec s sql = Engine.Instance.exec s sql

let one_int s sql =
  match (exec s sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | rows ->
    Alcotest.fail
      (Printf.sprintf "expected one int from %S, got %d rows" sql
         (List.length rows))

let check_int s msg expected sql =
  Alcotest.(check int) msg expected (one_int s sql)

let setup_items s =
  ignore
    (exec s "CREATE TABLE items (key bigint PRIMARY KEY, val text, qty bigint)");
  ignore (exec s "SELECT create_distributed_table('items', 'key')")

let load_items ?(n = 30) s =
  for i = 1 to n do
    ignore
      (exec s
         (Printf.sprintf
            "INSERT INTO items (key, val, qty) VALUES (%d, 'v%d', %d)" i i
            (i mod 5)))
  done

let node_of citus table k =
  let meta = citus.Citus.Api.metadata in
  Citus.Metadata.placement meta
    (Citus.Metadata.shard_for_value meta ~table (Datum.Int k))
      .Citus.Metadata.shard_id

let two_keys_on_different_nodes citus table =
  let k1 = 1 in
  let rec find k =
    if String.equal (node_of citus table k) (node_of citus table k1) then
      find (k + 1)
    else k
  in
  (k1, find 2)

(* --- circuit breaker unit tests --- *)

let test_breaker_lifecycle () =
  let clock = Sim.Clock.create () in
  let h = Citus.Health.create ~clock () in
  Alcotest.(check bool) "fresh node available" true
    (Citus.Health.available h "w1");
  Citus.Health.record_failure h "w1";
  Citus.Health.record_failure h "w1";
  Alcotest.(check bool) "below threshold still available" true
    (Citus.Health.available h "w1");
  Citus.Health.record_failure h "w1";
  Alcotest.(check bool) "threshold trips the breaker" false
    (Citus.Health.available h "w1");
  (* the backoff elapses on the simulated clock: half-open lets a probe in *)
  Sim.Clock.advance clock 1.5;
  Alcotest.(check bool) "half-open accepts a probe" true
    (Citus.Health.available h "w1");
  (* a failed probe re-opens with a doubled backoff *)
  Citus.Health.record_failure h "w1";
  Alcotest.(check bool) "probe failure re-opens" false
    (Citus.Health.available h "w1");
  Sim.Clock.advance clock 1.5;
  Alcotest.(check bool) "doubled backoff still running" false
    (Citus.Health.available h "w1");
  Sim.Clock.advance clock 1.0;
  Alcotest.(check bool) "half-open again" true (Citus.Health.available h "w1");
  Citus.Health.record_success h "w1";
  Alcotest.(check bool) "success closes the breaker" true
    (Citus.Health.available h "w1");
  let stats = Citus.Health.stats h "w1" in
  Alcotest.(check int) "consecutive failures reset" 0
    stats.Citus.Health.consecutive_failures;
  Alcotest.(check int) "total failures kept" 4 stats.Citus.Health.failures

let test_breaker_feeds_from_exec () =
  let _, citus, s = make () in
  setup_items s;
  load_items ~n:10 s;
  let st = Citus.Api.coordinator_state citus in
  let victim = node_of citus "items" 1 in
  Citus.State.partition_node st victim;
  for _ = 1 to 4 do
    match exec s "SELECT count(*) FROM items" with _ -> () | exception _ -> ()
  done;
  Alcotest.(check bool) "failures recorded for the partitioned node" true
    ((Citus.Health.stats st.Citus.State.health victim).Citus.Health.failures
     > 0);
  Citus.State.heal_node st victim

(* --- replication-factor metadata --- *)

let test_replication_factor_placements () =
  let cluster, citus, s = make () in
  Citus.Api.set_replication_factor citus 2;
  setup_items s;
  let meta = citus.Citus.Api.metadata in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let pls = Citus.Metadata.all_placements meta sh.Citus.Metadata.shard_id in
      Alcotest.(check int) "two placements per shard" 2 (List.length pls);
      let nodes =
        List.map (fun (p : Citus.Metadata.placement) -> p.Citus.Metadata.pl_node)
          pls
      in
      Alcotest.(check int) "replicas on distinct nodes" 2
        (List.length (List.sort_uniq String.compare nodes));
      (* a physical shard table exists on every replica *)
      List.iter
        (fun node ->
          let inst =
            (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s exists on %s" (Citus.Metadata.shard_name sh)
               node)
            true
            (Engine.Catalog.find_table_opt
               (Engine.Instance.catalog inst)
               (Citus.Metadata.shard_name sh)
             <> None))
        nodes)
    (Citus.Metadata.shards_of meta "items")

let test_set_replication_factor_udf () =
  let _, citus, s = make () in
  ignore (exec s "SELECT citus_set_replication_factor(2)");
  Alcotest.(check int) "factor stored" 2 citus.Citus.Api.replication_factor

(* --- failover + self-healing, end to end --- *)

let test_failover_and_self_healing () =
  let _, citus, s = make () in
  Citus.Api.set_replication_factor citus 2;
  setup_items s;
  load_items s;
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let key = 7 in
  let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int key) in
  let replicas = Citus.Metadata.placements meta shard.Citus.Metadata.shard_id in
  let primary = List.nth replicas 0 and secondary = List.nth replicas 1 in
  Citus.State.partition_node st secondary;
  (* reads fail over: the whole table still answers *)
  check_int s "count served during partition" 30 "SELECT count(*) FROM items";
  check_int s "row read served during partition" key
    (Printf.sprintf "SELECT key FROM items WHERE key = %d" key);
  (* the write lands on the surviving replica and marks the lost one *)
  ignore
    (exec s (Printf.sprintf "UPDATE items SET qty = 999 WHERE key = %d" key));
  check_int s "write visible during partition" 999
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" key);
  Alcotest.(check bool) "lost placement marked inactive" true
    (List.exists
       (fun ((sh : Citus.Metadata.shard), node) ->
         sh.Citus.Metadata.shard_id = shard.Citus.Metadata.shard_id
         && String.equal node secondary)
       (Citus.Metadata.inactive_placements meta));
  (* heal, then let the maintenance daemon repair the stale replica *)
  Citus.State.heal_node st secondary;
  Citus.Api.maintenance citus;
  Alcotest.(check int) "health report shows zero inactive placements" 0
    (List.length (Citus.Metadata.inactive_placements meta));
  (* prove the repaired replica really holds the data: lose the replica
     that served the write and read through the repaired one *)
  Citus.State.partition_node st primary;
  check_int s "repaired replica serves the write" 999
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" key);
  Citus.State.heal_node st primary

let test_insert_during_partition_marks_and_heals () =
  let _, citus, s = make () in
  Citus.Api.set_replication_factor citus 2;
  setup_items s;
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let key = 101 in
  let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int key) in
  let replicas = Citus.Metadata.placements meta shard.Citus.Metadata.shard_id in
  let secondary = List.nth replicas 1 in
  Citus.State.partition_node st secondary;
  ignore
    (exec s
       (Printf.sprintf
          "INSERT INTO items (key, val, qty) VALUES (%d, 'new', 1)" key));
  check_int s "insert visible" 1
    (Printf.sprintf "SELECT count(*) FROM items WHERE key = %d" key);
  Alcotest.(check bool) "some placement inactive" true
    (Citus.Metadata.inactive_placements meta <> []);
  Citus.State.heal_node st secondary;
  Citus.Api.maintenance citus;
  Alcotest.(check int) "repair drained the inactive list" 0
    (List.length (Citus.Metadata.inactive_placements meta));
  (* both replicas active again: the shard accepts replicated writes *)
  ignore
    (exec s (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" key));
  Alcotest.(check int) "still two active placements" 2
    (List.length (Citus.Metadata.placements meta shard.Citus.Metadata.shard_id))

let test_single_replica_failure_still_clean_error () =
  (* replication factor 1 (the default): losing the only placement must
     surface a clean session error, never mark the last placement away *)
  let _, citus, s = make () in
  setup_items s;
  load_items ~n:10 s;
  let st = Citus.Api.coordinator_state citus in
  let victim = node_of citus "items" 1 in
  Citus.State.partition_node st victim;
  (match exec s "SELECT qty FROM items WHERE key = 1" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "expected a session error");
  Alcotest.(check int) "no placement marked inactive" 0
    (List.length (Citus.Metadata.inactive_placements citus.Citus.Api.metadata));
  Citus.State.heal_node st victim;
  ignore (exec s "ROLLBACK");
  check_int s "works again after heal" 10 "SELECT count(*) FROM items"

(* --- 2PC drain accounting --- *)

let test_2pc_drain_counts_failed_commits () =
  let _, citus, s = make () in
  setup_items s;
  ignore (exec s "BEGIN");
  load_items ~n:20 s;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  let lost = node_of citus "items" k2 in
  Citus.State.inject_failure st ~node:lost ~matching:"COMMIT PREPARED";
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 555 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 555 WHERE key = %d" k2));
  ignore (exec s "COMMIT");
  (* the lost COMMIT PREPARED is counted per node, and the commit record
     survives for recovery *)
  Alcotest.(check int) "failed commit counted" 1
    (Citus.Health.failed_commits st.Citus.State.health lost);
  Alcotest.(check bool) "commit record retained" true
    (Citus.Twopc.commit_record_count st > 0);
  (* partition heals; the recovery daemon drains the orphan *)
  Citus.State.clear_failures st;
  Citus.Api.maintenance citus;
  check_int s "k2 committed after recovery" 555
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2);
  Alcotest.(check int) "commit records drained" 0
    (Citus.Twopc.commit_record_count st)

let test_coordinator_crash_before_commit_fanout () =
  (* The classic 2PC window: the coordinator has committed locally (commit
     records durable in pg_dist_transaction) but dies before any COMMIT
     PREPARED reaches the workers. After restart, recovery must push the
     decision out from the surviving records. *)
  let cluster, citus, s = make () in
  setup_items s;
  ignore (exec s "BEGIN");
  load_items ~n:20 s;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  let n1 = node_of citus "items" k1 and n2 = node_of citus "items" k2 in
  Citus.State.inject_failure st ~node:n1 ~matching:"COMMIT PREPARED";
  Citus.State.inject_failure st ~node:n2 ~matching:"COMMIT PREPARED";
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 777 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 777 WHERE key = %d" k2));
  ignore (exec s "COMMIT");
  (* the decision is durable but neither worker has heard it *)
  Alcotest.(check bool) "commit records survive the lost fan-out" true
    (Citus.Twopc.commit_record_count st > 0);
  List.iter
    (fun node ->
      let inst =
        (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s still holds its prepared txn" node)
        true
        (Txn.Manager.prepared_transactions (Engine.Instance.txn_manager inst)
         <> []))
    [ n1; n2 ];
  (* coordinator crashes and comes back: WAL replay restores the records *)
  Citus.State.clear_failures st;
  Engine.Instance.restart
    (Cluster.Topology.find_node cluster "coordinator").Cluster.Topology.instance;
  Citus.State.reset_sessions st;
  let s = Citus.Api.connect citus in
  Citus.Api.maintenance citus;
  check_int s "k1 converged to the committed value" 777
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1);
  check_int s "k2 converged to the committed value" 777
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2);
  Alcotest.(check int) "commit records drained after recovery" 0
    (Citus.Twopc.commit_record_count st);
  List.iter
    (fun node ->
      let inst =
        (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
      in
      Alcotest.(check
                  (list (pair string string)))
        (Printf.sprintf "no prepared txn left on %s" node)
        []
        (List.map
           (fun (gid, xid) -> (gid, string_of_int xid))
           (Txn.Manager.prepared_transactions
              (Engine.Instance.txn_manager inst))))
    [ n1; n2 ]

(* The coordinator crashes after its participants PREPARE but before it
   writes its commit records. Its transaction wrote nothing locally, so
   no WAL record names its xid; the logged xid floor must still keep
   numbering above it after the restart, or a reissued xid could read as
   the crashed transaction still running, and recovery would leave its
   orphans prepared. *)
let test_coordinator_crash_before_commit_record () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items ~n:20 s;
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let instance node =
    (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
  in
  let coord_mgr = Engine.Instance.txn_manager (instance "coordinator") in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  (* the first half of 2PC, as the coordinator drives it *)
  let coord_xid = Txn.Manager.begin_txn coord_mgr in
  List.iter
    (fun k ->
      let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int k) in
      let ws = Engine.Instance.connect (instance (node_of citus "items" k)) in
      ignore (exec ws "BEGIN");
      ignore
        (exec ws
           (Printf.sprintf "UPDATE %s SET qty = 999 WHERE key = %d"
              (Citus.Metadata.shard_name shard) k));
      ignore
        (exec ws
           (Printf.sprintf "PREPARE TRANSACTION '%s'"
              (Citus.State.fresh_gid st ~coord_xid))))
    [ k1; k2 ];
  Engine.Instance.restart (instance "coordinator");
  Citus.State.reset_sessions st;
  let next = Txn.Manager.begin_txn coord_mgr in
  Alcotest.(check bool)
    (Printf.sprintf "xid %d after the restart is above the crashed %d" next
       coord_xid)
    true (next > coord_xid);
  Txn.Manager.abort coord_mgr next;
  let committed, rolled_back = Citus.Twopc.recover st in
  Alcotest.(check int) "nothing committed" 0 committed;
  Alcotest.(check int) "both orphans rolled back" 2 rolled_back;
  let s = Citus.Api.connect citus in
  List.iter
    (fun k ->
      check_int s (Printf.sprintf "key %d unchanged" k) (k mod 5)
        (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k))
    [ k1; k2 ]

(* --- gray failure: statement timeouts, slow-trips, hedged reads --- *)

(* [make] builds clusters without a fault plan (zero injected latency);
   gray-failure tests need [~fault_seed] so stalls and latency draws are
   live. *)
let make_gray ?(workers = 3) ?(shard_count = 4) ?(fault_seed = 42) () =
  let cluster = Cluster.Topology.create ~fault_seed ~workers () in
  let citus = Citus.Api.install ~shard_count cluster in
  let s = Citus.Api.connect citus in
  (cluster, citus, s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let test_statement_timeout_bounds_a_stalled_read () =
  let cluster, citus, s = make_gray () in
  setup_items s;
  load_items ~n:10 s;
  let st = Citus.Api.coordinator_state citus in
  let fault = Option.get (Cluster.Topology.fault cluster) in
  (* the knob is reachable through SQL, like the GUC it models *)
  ignore (exec s "SELECT citus_set_config('statement_timeout', '0.5')");
  Alcotest.(check (float 1e-9)) "udf set the knob" 0.5
    st.Citus.State.config.Citus.State.statement_timeout;
  (* replication factor 1: the only replica of key 1 browns out — the
     node stays up, its replies just land seconds late *)
  let victim = node_of citus "items" 1 in
  Sim.Fault.stall_node fault ~node:victim ~extra:5.0 ~duration:60.0;
  let clock = cluster.Cluster.Topology.clock in
  let t0 = Sim.Clock.now clock in
  (match exec s "SELECT count(*) FROM items WHERE key = 1" with
   | exception Engine.Instance.Session_error m ->
     Alcotest.(check bool)
       (Printf.sprintf "typed timeout message (got %S)" m)
       true
       (contains ~sub:"statement timeout" m)
   | _ -> Alcotest.fail "expected the stalled read to time out");
  let elapsed = Sim.Clock.now clock -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "failed within deadline + epsilon (%.3fs)" elapsed)
    true
    (elapsed <= 0.5 +. 0.2);
  (* a timeout is a statement abort, not a node failure: nothing leaks,
     every span closes, the breaker saw a slow event but no failure *)
  Alcotest.(check int) "no txn conns pinned" 0 (Citus.State.leaked_txn_conns st);
  Alcotest.(check int) "no prepared pairs pinned" 0
    (Citus.State.leaked_prepared st);
  let trace = Cluster.Topology.trace cluster in
  Alcotest.(check int) "all spans closed" (Obs.Trace.started trace)
    (Obs.Trace.finished trace);
  Alcotest.(check bool) "slow event recorded for the stalled node" true
    (Citus.Health.slow_events st.Citus.State.health victim >= 1);
  Alcotest.(check int) "no hard failure recorded" 0
    (Citus.Health.stats st.Citus.State.health victim).Citus.Health.failures;
  Alcotest.(check int) "no placement marked inactive" 0
    (List.length (Citus.Metadata.inactive_placements citus.Citus.Api.metadata));
  (* the session recovers and, once the stall lifts, so does the node *)
  ignore (exec s "ROLLBACK");
  Sim.Clock.advance clock 61.0;
  check_int s "works again after the stall lifts" 1
    "SELECT count(*) FROM items WHERE key = 1"

let test_slow_trips_breaker_without_failures () =
  let clock = Sim.Clock.create () in
  let h = Citus.Health.create ~clock () in
  Citus.Health.record_slow h "w1";
  Citus.Health.record_slow h "w1";
  Alcotest.(check bool) "below the slow threshold" true
    (Citus.Health.available h "w1");
  Citus.Health.record_slow h "w1";
  Alcotest.(check bool) "third consecutive slow sheds load" false
    (Citus.Health.available h "w1");
  let stats = Citus.Health.stats h "w1" in
  Alcotest.(check int) "slowness is not failure" 0 stats.Citus.Health.failures;
  Alcotest.(check int) "slow events counted" 3
    (Citus.Health.slow_events h "w1");
  (* the backoff elapses; one success snaps the breaker closed *)
  Sim.Clock.advance clock 1.5;
  Alcotest.(check bool) "half-open accepts a probe" true
    (Citus.Health.available h "w1");
  Citus.Health.record_success h "w1";
  Alcotest.(check bool) "success closes the breaker" true
    (Citus.Health.available h "w1")

let test_hedged_read_escapes_a_stall () =
  let cluster, citus, s = make_gray () in
  ignore (exec s "SELECT citus_set_replication_factor(2)");
  setup_items s;
  load_items ~n:10 s;
  let st = Citus.Api.coordinator_state citus in
  let fault = Option.get (Cluster.Topology.fault cluster) in
  ignore (exec s "SELECT citus_set_config('hedge_threshold', '0.05')");
  (* the planned replica of key 1 browns out; the hedge must serve the
     read from the other replica within ~the hedge threshold *)
  let primary = node_of citus "items" 1 in
  Sim.Fault.stall_node fault ~node:primary ~extra:5.0 ~duration:120.0;
  let clock = cluster.Cluster.Topology.clock in
  let m = Cluster.Topology.metrics cluster in
  let t0 = Sim.Clock.now clock in
  check_int s "read served despite the stalled primary" 1
    "SELECT count(*) FROM items WHERE key = 1";
  let elapsed = Sim.Clock.now clock -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "hedge escaped the stall (%.3fs)" elapsed)
    true (elapsed < 1.0);
  Alcotest.(check bool) "a hedge fired" true
    (Obs.Metrics.counter_value m Obs.Metric_names.exec_hedged_reads >= 1);
  Alcotest.(check bool) "the hedge won" true
    (Obs.Metrics.counter_value m Obs.Metric_names.exec_hedge_wins >= 1);
  (* the losing attempt was cancelled and drained: its connection is back
     in the pool, no fiber leaked, every span closed *)
  Alcotest.(check int) "no txn conns pinned" 0 (Citus.State.leaked_txn_conns st);
  let trace = Cluster.Topology.trace cluster in
  Alcotest.(check int) "all spans closed" (Obs.Trace.started trace)
    (Obs.Trace.finished trace);
  (* reads hedge; the slow primary got a slow event, not a failure *)
  Alcotest.(check int) "no hard failure recorded" 0
    (Citus.Health.stats st.Citus.State.health primary).Citus.Health.failures

let test_lock_waiters_released_on_retry_give_up () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items ~n:5 s;
  let s2 = Citus.Api.connect citus in
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE items SET qty = 1 WHERE key = 1");
  (match
     Citus.Api.exec_with_retries_report citus s2 ~attempts:2
       "UPDATE items SET qty = 2 WHERE key = 1"
   with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "expected the bounded retry loop to re-raise");
  (* the abandoned waiter must leave no wait-for edges behind on any
     node, or the deadlock detector would chase (and eventually shoot)
     a transaction that is no longer waiting for anything *)
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let mgr = Engine.Instance.txn_manager node.Cluster.Topology.instance in
      Alcotest.(check int)
        (Printf.sprintf "no wait edges on %s" node.Cluster.Topology.node_name)
        0
        (List.length (Txn.Lock.wait_edges (Txn.Manager.locks mgr))))
    (Cluster.Topology.all_nodes cluster);
  let m = Cluster.Topology.metrics cluster in
  let cancelled_before =
    Obs.Metrics.counter_value m Obs.Metric_names.deadlock_cancelled
  in
  Citus.Api.maintenance citus;
  Alcotest.(check int) "detector cancels nothing stale" cancelled_before
    (Obs.Metrics.counter_value m Obs.Metric_names.deadlock_cancelled);
  ignore (exec s "COMMIT");
  ignore (exec s2 "ROLLBACK")

(* --- bounded lock-conflict retries --- *)

let test_exec_with_retries_reports_attempts () =
  let _, citus, s = make () in
  setup_items s;
  load_items ~n:5 s;
  let _, attempts =
    Citus.Api.exec_with_retries_report citus s "SELECT count(*) FROM items"
  in
  Alcotest.(check int) "clean statement takes one attempt" 1 attempts;
  (* a held lock forces retries; the loop is bounded and re-raises *)
  let s2 = Citus.Api.connect citus in
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE items SET qty = 1 WHERE key = 1");
  (match
     Citus.Api.exec_with_retries_report citus s2 ~attempts:2
       "UPDATE items SET qty = 2 WHERE key = 1"
   with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "expected the bounded retry loop to re-raise");
  ignore (exec s "COMMIT");
  ignore (exec s2 "ROLLBACK")

let () =
  Alcotest.run "failover"
    [
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "fed by Exec" `Quick test_breaker_feeds_from_exec;
        ] );
      ( "replication",
        [
          Alcotest.test_case "placements" `Quick
            test_replication_factor_placements;
          Alcotest.test_case "set factor udf" `Quick
            test_set_replication_factor_udf;
        ] );
      ( "failover",
        [
          Alcotest.test_case "read/write failover + repair" `Quick
            test_failover_and_self_healing;
          Alcotest.test_case "insert during partition" `Quick
            test_insert_during_partition_marks_and_heals;
          Alcotest.test_case "single replica still clean error" `Quick
            test_single_replica_failure_still_clean_error;
        ] );
      ( "twopc",
        [
          Alcotest.test_case "drain counts failed commits" `Quick
            test_2pc_drain_counts_failed_commits;
          Alcotest.test_case "coordinator crash before fan-out" `Quick
            test_coordinator_crash_before_commit_fanout;
          Alcotest.test_case "coordinator crash before commit record" `Quick
            test_coordinator_crash_before_commit_record;
        ] );
      ( "retries",
        [
          Alcotest.test_case "attempts surfaced and bounded" `Quick
            test_exec_with_retries_reports_attempts;
        ] );
      ( "gray",
        [
          Alcotest.test_case "statement timeout bounds a stalled read" `Quick
            test_statement_timeout_bounds_a_stalled_read;
          Alcotest.test_case "slow trips breaker without failures" `Quick
            test_slow_trips_breaker_without_failures;
          Alcotest.test_case "hedged read escapes a stall" `Quick
            test_hedged_read_escapes_a_stall;
          Alcotest.test_case "lock waiters released on give-up" `Quick
            test_lock_waiters_released_on_retry_give_up;
        ] );
    ]
