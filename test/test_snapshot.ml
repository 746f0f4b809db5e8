(* Distributed snapshot consistency (DESIGN.md §4h).

   Targeted tests pin the mechanism down deterministically: the
   [citus.consistency] knob, the torn read that [Eventual] permits and
   [Read_your_writes]/[Snapshot] forbid, read-triggered resolution of
   in-doubt (prepared) transactions on both the commit and the rollback
   path, per-fragment replica hedging of scatter-gather reads, and the
   deadline-bounded rebalancer move ([citus.move_timeout]).

   The chaos matrix then replays the whole story under seeded faults —
   ambient latency, brownouts, dropped round trips, commit fan-outs
   fumbled between PREPARE and COMMIT PREPARED, and worker clocks skewed
   by seconds with drift — and checks the tentpole invariant: a
   snapshot-level read either fails or returns the exact conserved
   total; it is never torn. Eventual-level reads run side by side and
   are expected to tear somewhere in the matrix (proving the windows
   were really open), and the same seed replays bit-for-bit. *)

open Chaos_kit

let check_int s msg expected sql =
  Alcotest.(check int) msg expected (one_int s sql)

let n_keys = 12
let expected_total = n_keys * initial_balance
let setup_accounts s = load_accounts ~one_txn:true s ~n_keys
let sum_balances s = one_int s "SELECT sum(balance) FROM accounts"

(* Open an in-doubt window: a two-node transfer whose COMMIT PREPARED to
   [lost]'s node is fumbled — the coordinator acknowledges the commit
   (records durable), the worker keeps the prepared transaction. Returns
   (k1, k2, the node left in doubt). *)
let fumbled_transfer citus s ~amount =
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = cross_node_keys ~first:1 citus in
  let lost_node = node_of citus k2 in
  Citus.State.inject_failure st ~node:lost_node ~matching:"COMMIT PREPARED";
  begin_transfer s ~k1 ~k2 ~amount;
  ignore (exec s "COMMIT");
  Citus.State.clear_failures st;
  (k1, k2, lost_node)

(* --- the knob --- *)

let test_consistency_knob () =
  let cluster = Cluster.Topology.create ~workers:2 () in
  let citus = Citus.Api.install ~shard_count:4 cluster in
  let s = Citus.Api.connect citus in
  let st = Citus.Api.coordinator_state citus in
  Alcotest.(check string) "default is eventual" "eventual"
    (Citus.State.consistency_to_string st.Citus.State.config.Citus.State.consistency);
  ignore (exec s "SELECT citus_set_config('consistency', 'snapshot')");
  Alcotest.(check bool) "snapshot set" true
    (st.Citus.State.config.Citus.State.consistency = Citus.State.Snapshot);
  ignore (exec s "SELECT citus_set_config('consistency', 'read_your_writes')");
  Alcotest.(check bool) "read_your_writes set" true
    (st.Citus.State.config.Citus.State.consistency
    = Citus.State.Read_your_writes);
  ignore (exec s "SELECT citus_set_config('consistency', 'eventual')");
  Alcotest.(check bool) "back to eventual" true
    (st.Citus.State.config.Citus.State.consistency = Citus.State.Eventual);
  (match exec s "SELECT citus_set_config('consistency', 'strong-ish')" with
   | exception _ -> ()
   | _ -> Alcotest.fail "bad consistency value accepted");
  ignore (exec s "SELECT citus_set_config('move_timeout', '2.5')");
  Alcotest.(check (float 0.0)) "move_timeout set" 2.5
    st.Citus.State.config.Citus.State.move_timeout;
  (* string round trips *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "round trips" true
        (Citus.State.consistency_of_string (Citus.State.consistency_to_string c)
        = Some c))
    [ Citus.State.Eventual; Citus.State.Read_your_writes; Citus.State.Snapshot ]

(* --- torn at eventual, healed at stronger levels --- *)

let test_eventual_read_is_torn () =
  let cluster = Cluster.Topology.create ~workers:3 () in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  let s = Citus.Api.connect citus in
  setup_accounts s;
  let amount = 7 in
  let _, _, lost_node = fumbled_transfer citus s ~amount in
  Alcotest.(check int) "window is open" 1 (prepared_count cluster lost_node);
  (* eventual: the debit is visible, the in-doubt credit is not — the
     acknowledged distributed commit reads half-applied *)
  Alcotest.(check int) "torn total at eventual" (expected_total - amount)
    (sum_balances s);
  (* the torn read did not resolve anything *)
  Alcotest.(check int) "window still open" 1 (prepared_count cluster lost_node);
  Alcotest.(check int) "no in-doubt waits at eventual" 0
    (counter cluster Obs.Metric_names.snapshot_indoubt_waits)

(* COPY is a round trip like any other: its reply carries the worker's
   HLC stamp back to the coordinator, so a snapshot read right after it
   sees the copied rows even with every worker clock a second ahead.
   The same rows sent as INSERTs always did. *)
let test_snapshot_sees_own_copy () =
  let cluster = Cluster.Topology.create ~workers:2 ~fault_seed:1 () in
  let citus = Citus.Api.install ~shard_count:4 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "CREATE TABLE u (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('u', 'k')");
  ignore (exec s "SELECT citus_set_config('consistency', 'snapshot')");
  List.iter
    (fun node -> Sim.Fault.set_clock_skew (fault_of cluster) ~node ~offset:1.0 ~drift:0.0)
    (worker_names cluster);
  for k = 0 to 19 do
    ignore (exec s (Printf.sprintf "INSERT INTO u VALUES (%d, 0)" k))
  done;
  check_int s "inserted rows" 20 "SELECT count(*) FROM u";
  let copied =
    Engine.Instance.copy_in s ~table:"t" ~columns:None (List.init 20 (Printf.sprintf "%d\t0"))
  in
  Alcotest.(check int) "rows copied" 20 copied;
  check_int s "copied rows" 20 "SELECT count(*) FROM t"

let heal_test consistency () =
  let cluster = Cluster.Topology.create ~workers:3 () in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  let s = Citus.Api.connect citus in
  setup_accounts s;
  let st = Citus.Api.coordinator_state citus in
  let _, k2, lost_node = fumbled_transfer citus s ~amount:7 in
  st.Citus.State.config.Citus.State.consistency <- consistency;
  (* the reader hits the in-doubt fragment, consults the coordinator's
     commit record, finishes the COMMIT PREPARED itself and retries *)
  Alcotest.(check int) "total conserved" expected_total (sum_balances s);
  Alcotest.(check bool) "reader blocked on the in-doubt window" true
    (counter cluster Obs.Metric_names.snapshot_indoubt_waits > 0);
  Alcotest.(check bool) "resolved by committing" true
    (counter cluster Obs.Metric_names.snapshot_indoubt_commits > 0);
  Alcotest.(check bool) "read retried after resolution" true
    (counter cluster Obs.Metric_names.snapshot_read_retries > 0);
  Alcotest.(check int) "window drained by the read" 0
    (prepared_count cluster lost_node);
  check_int s "credit visible after resolution" 107
    (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2);
  (* a second read finds nothing in doubt *)
  let waits = counter cluster Obs.Metric_names.snapshot_indoubt_waits in
  Alcotest.(check int) "still conserved" expected_total (sum_balances s);
  Alcotest.(check int) "no further blocking" waits
    (counter cluster Obs.Metric_names.snapshot_indoubt_waits);
  Citus.Api.maintenance citus;
  Alcotest.(check int) "commit records drained" 0
    (Citus.Twopc.commit_record_count st)

let test_read_your_writes_heals () = heal_test Citus.State.Read_your_writes ()
let test_snapshot_heals () = heal_test Citus.State.Snapshot ()

let test_snapshot_resolves_aborted_orphan () =
  (* the other 2PC outcome: the coordinator aborted (no commit record),
     a worker keeps an orphaned prepared transaction — a snapshot reader
     rolls it back instead of waiting for the recovery daemon *)
  let cluster = Cluster.Topology.create ~workers:3 () in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  let s = Citus.Api.connect citus in
  setup_accounts s;
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = cross_node_keys ~first:1 citus in
  (* connections are visited newest-first at commit, so k2's node
     prepares first; failing k1's PREPARE aborts the 2PC and the
     injected ROLLBACK PREPARED failure orphans k2's prepared txn *)
  Citus.State.inject_failure st ~node:(node_of citus k1)
    ~matching:"PREPARE TRANSACTION";
  Citus.State.inject_failure st ~node:(node_of citus k2)
    ~matching:"ROLLBACK PREPARED";
  begin_transfer s ~k1 ~k2 ~amount:7;
  (match exec s "COMMIT" with _ -> () | exception _ -> ());
  rollback_quietly s;
  Citus.State.clear_failures st;
  Alcotest.(check int) "orphan pending" 1
    (prepared_count cluster (node_of citus k2));
  st.Citus.State.config.Citus.State.consistency <- Citus.State.Snapshot;
  Alcotest.(check int) "aborted transfer fully invisible" expected_total
    (sum_balances s);
  Alcotest.(check bool) "resolved by rolling back" true
    (counter cluster Obs.Metric_names.snapshot_indoubt_rollbacks > 0);
  Alcotest.(check int) "orphan drained" 0
    (prepared_count cluster (node_of citus k2))

(* --- the in-doubt decision table --- *)

(* Recovery and snapshot readers decide a prepared gid's fate the same
   way: a commit record on the gid's origin coordinator means commit at
   the recorded HLC stamp; no record once the origin transaction has
   ended means roll back; otherwise (origin transaction still active, or
   origin unreachable) the gid stays pending. Each row builds one
   prepared gid by hand — the first half of 2PC as [origin] drives it,
   on the worker holding [key] — and hands it to one entry point: the
   coordinator's recovery pass, or a snapshot-level read of [key]. *)
type origin_txn = Record | Ended | Active | Unreachable
type fate = Commit | Rollback | Pending

let decision_row ~entry ~origin case =
  let label m =
    Printf.sprintf "[%s, origin %s, %s] %s"
      (match entry with `Recover -> "recover" | `Read -> "read")
      origin
      (match case with
       | Record -> "record"
       | Ended -> "ended"
       | Active -> "active"
       | Unreachable -> "unreachable")
      m
  in
  let expected =
    match case with
    | Record -> Commit
    | Ended -> Rollback
    | Active | Unreachable -> Pending
  in
  let cluster = Cluster.Topology.create ~workers:3 () in
  let clock = cluster.Cluster.Topology.clock in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  let s = Citus.Api.connect citus in
  setup_accounts s;
  ignore (exec s "SELECT citus_enable_metadata_sync()");
  let st = Citus.Api.coordinator_state citus in
  let origin_st =
    List.find
      (fun (o : Citus.State.t) ->
        String.equal o.Citus.State.local.Cluster.Topology.node_name origin)
      citus.Citus.Api.states
  in
  let instance node =
    (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
  in
  (* a key off worker1, so partitioning that origin leaves it readable *)
  let rec find k =
    if String.equal (node_of citus k) "worker1" then find (k + 1) else k
  in
  let key = find 0 in
  let node = node_of citus key in
  let mgr = Engine.Instance.txn_manager (instance node) in
  (* the origin's transaction: its xid names the gid, its commit makes
     the commit record durable *)
  let os = Engine.Instance.connect (instance origin) in
  ignore (exec os "BEGIN");
  let coord_xid = Option.get (Engine.Instance.current_xid os) in
  let gid = Citus.State.fresh_gid origin_st ~coord_xid in
  let ws = Engine.Instance.connect (instance node) in
  ignore (exec ws "BEGIN");
  ignore
    (exec ws
       (Printf.sprintf "UPDATE %s SET balance = balance + 7 WHERE key = %d"
          (Citus.Metadata.shard_name
             (Citus.Metadata.shard_for_value citus.Citus.Api.metadata
                ~table:"accounts" (Datum.Int key)))
          key));
  ignore (exec ws (Printf.sprintf "PREPARE TRANSACTION '%s'" gid));
  let xid = List.assoc gid (Txn.Manager.prepared_transactions mgr) in
  Sim.Clock.advance clock 0.1;
  let stamp = Txn.Hlc.now (Cluster.Topology.hlc cluster origin) in
  (match case with
   | Record ->
     ignore
       (exec os
          (Printf.sprintf "INSERT INTO %s VALUES ('%s', '%s', '%s')"
             Citus.Twopc.commit_records_table gid node
             (Txn.Hlc.to_string stamp)));
     ignore (exec os "COMMIT")
   | Ended -> ignore (exec os "ROLLBACK")
   | Active -> ()
   | Unreachable ->
     (* ended without a record: reachable, this gid would roll back *)
     ignore (exec os "ROLLBACK");
     Citus.State.partition_node st origin);
  (* the reader's snapshot is taken after the PREPARE *)
  Sim.Clock.advance clock 0.25;
  let foreign = not (String.equal origin "coordinator") in
  let resolved = expected <> Pending in
  (match entry with
   | `Recover ->
     let committed, rolled_back = Citus.Twopc.recover st in
     Alcotest.(check (pair int int))
       (label "recovery's (committed, rolled back)")
       (match expected with
        | Commit -> (1, 0)
        | Rollback -> (0, 1)
        | Pending -> (0, 0))
       (committed, rolled_back);
     Alcotest.(check int)
       (label "foreign gids resolved")
       (if foreign && resolved then 1 else 0)
       (counter cluster Obs.Metric_names.mx_foreign_gids_resolved)
   | `Read ->
     st.Citus.State.config.Citus.State.consistency <- Citus.State.Snapshot;
     st.Citus.State.config.Citus.State.statement_timeout <- 0.5;
     let sql =
       Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" key
     in
     (match expected with
      | Commit -> check_int s (label "reader sees the commit") 107 sql
      | Rollback -> check_int s (label "reader sees the rollback") 100 sql
      | Pending -> (
        match exec s sql with
        | exception Engine.Instance.Session_error m ->
          Alcotest.(check bool)
            (label ("the read waits out its deadline: " ^ m))
            true
            (String.starts_with
               ~prefix:"canceling statement due to statement timeout" m)
        | _ -> Alcotest.fail (label "a pending gid must not be read past")));
     Alcotest.(check bool)
       (label "reader met the gid")
       true
       (counter cluster Obs.Metric_names.snapshot_indoubt_waits > 0);
     Alcotest.(check (pair int int))
       (label "reader's (commits, rollbacks)")
       (match expected with
        | Commit -> (1, 0)
        | Rollback -> (0, 1)
        | Pending -> (0, 0))
       ( counter cluster Obs.Metric_names.snapshot_indoubt_commits,
         counter cluster Obs.Metric_names.snapshot_indoubt_rollbacks ));
  Alcotest.(check int)
    (label "still prepared")
    (if resolved then 0 else 1)
    (prepared_count cluster node);
  (match expected with
   | Commit ->
     Alcotest.(check (option string))
       (label "committed at the recorded stamp")
       (Some (Txn.Hlc.to_string stamp))
       (Option.map Txn.Hlc.to_string (Txn.Manager.commit_ts_of mgr xid));
     (* recovery collects the record; a reader leaves it to the daemon *)
     Alcotest.(check int)
       (label "gid's commit record left on the origin")
       (match entry with `Recover -> 0 | `Read -> 1)
       (one_int os
          (Printf.sprintf "SELECT count(*) FROM %s WHERE gid = '%s'"
             Citus.Twopc.commit_records_table gid))
   | Rollback ->
     Alcotest.(check bool)
       (label "rolled back")
       true
       (Txn.Manager.status mgr xid = Txn.Manager.Aborted)
   | Pending -> ())

let test_indoubt_decision_table () =
  List.iter
    (fun entry ->
      List.iter
        (fun (origin, case) -> decision_row ~entry ~origin case)
        [
          ("coordinator", Record);
          ("worker1", Record);
          ("coordinator", Ended);
          ("worker1", Ended);
          ("coordinator", Active);
          ("worker1", Active);
          ("worker1", Unreachable);
        ])
    [ `Recover; `Read ]

(* --- per-fragment replica hedging --- *)

let test_scatter_gather_fragment_hedging () =
  let cluster =
    Cluster.Topology.create ~workers:3 ~fault_seed:11 ~sched_seed:11 ()
  in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  Citus.Api.set_replication_factor citus 2;
  let s = Citus.Api.connect citus in
  setup_accounts s;
  let st = Citus.Api.coordinator_state citus in
  st.Citus.State.config.Citus.State.hedge_threshold <- 0.05;
  st.Citus.State.config.Citus.State.consistency <- Citus.State.Snapshot;
  let fault = fault_of cluster in
  (* one worker browns out: its fragments of the scatter-gather read
     sit past the hedge threshold, each hedges to the other replica
     independently, and the slow replica never delays the answer *)
  Sim.Fault.stall_node fault ~node:"worker1" ~extra:1.0 ~duration:1000.0;
  Alcotest.(check int) "hedged read still exact" expected_total
    (sum_balances s);
  Alcotest.(check bool) "fragments hedged" true
    (counter cluster Obs.Metric_names.exec_hedged_reads > 0);
  Alcotest.(check bool) "multi-shard fragments counted" true
    (counter cluster Obs.Metric_names.snapshot_hedged_fragments > 0);
  Alcotest.(check bool) "a hedge won" true
    (counter cluster Obs.Metric_names.snapshot_fragment_hedge_wins > 0);
  (* writes never hedge, stalled replica or not *)
  let hedges = counter cluster Obs.Metric_names.exec_hedged_reads in
  ignore (exec s "UPDATE accounts SET balance = balance + 0 WHERE key = 1");
  Alcotest.(check int) "writes never hedge" hedges
    (counter cluster Obs.Metric_names.exec_hedged_reads)

(* --- deadline-bounded rebalancer moves --- *)

let test_move_timeout_abandons_cleanly () =
  let cluster =
    Cluster.Topology.create ~workers:2 ~fault_seed:5 ~sched_seed:5 ()
  in
  let citus = Citus.Api.install ~shard_count:4 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "CREATE TABLE t (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  for i = 1 to 40 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, %d)" i i))
  done;
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = List.hd (Citus.Metadata.shards_of meta "t") in
  let shard_id = shard.Citus.Metadata.shard_id in
  let from_node = Citus.Metadata.placement meta shard_id in
  let to_node = if from_node = "worker1" then "worker2" else "worker1" in
  let fault = fault_of cluster in
  (* the destination stalls far past the move budget *)
  Sim.Fault.stall_node fault ~node:to_node ~extra:5.0 ~duration:1000.0;
  st.Citus.State.config.Citus.State.move_timeout <- 1.0;
  (match Citus.Rebalancer.move_shard_group st ~shard_id ~to_node with
   | _ -> Alcotest.fail "move should have timed out"
   | exception Cluster.Connection.Timed_out _ -> ());
  Alcotest.(check int) "timeout counted" 1
    (counter cluster Obs.Metric_names.rebalance_move_timeouts);
  (* abandoned cleanly: source placement untouched, no trace of the
     partial copy on the destination *)
  Alcotest.(check string) "placement unchanged" from_node
    (Citus.Metadata.placement meta shard_id);
  Alcotest.(check bool) "no placement on destination" true
    (Citus.Metadata.placement_state_of meta ~shard_id ~node:to_node = None);
  Alcotest.(check bool) "partial copy fenced off" true
    (Engine.Catalog.find_table_opt
       (Engine.Instance.catalog
          (Cluster.Topology.find_node cluster to_node).Cluster.Topology.instance)
       (Citus.Metadata.shard_name shard)
    = None);
  check_int s "data intact" 40 "SELECT count(*) FROM t";
  (* the stall lifts; the same move now completes *)
  Sim.Fault.quiesce fault;
  let m = Citus.Rebalancer.move_shard_group st ~shard_id ~to_node in
  Alcotest.(check string) "moved after heal" to_node m.Citus.Rebalancer.to_node;
  Alcotest.(check string) "placement flipped" to_node
    (Citus.Metadata.placement meta shard_id);
  check_int s "data intact after move" 40 "SELECT count(*) FROM t"

let test_move_timeout_rolls_back_group () =
  (* a timeout in the middle of a colocation group: the first sibling
     had already cut over — it must be copied back so the group is
     never split across nodes *)
  let cluster =
    Cluster.Topology.create ~workers:2 ~fault_seed:6 ~sched_seed:6 ()
  in
  let citus = Citus.Api.install ~shard_count:4 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "CREATE TABLE t (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "CREATE TABLE u (k bigint, w bigint)");
  ignore (exec s "SELECT create_distributed_table('u', 'k', 't')");
  ignore (exec s "INSERT INTO t (k, v) VALUES (1, 10)");
  ignore (exec s "INSERT INTO u (k, w) VALUES (1, 20)");
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table:"t" (Datum.Int 1) in
  let shard_id = shard.Citus.Metadata.shard_id in
  let from_node = Citus.Metadata.placement meta shard_id in
  let to_node = if from_node = "worker1" then "worker2" else "worker1" in
  let fault = fault_of cluster in
  (* each destination round trip costs exactly 0.4s; the tables have no
     indexes, so each shard copy is one CREATE TABLE round trip: the
     first sibling lands at 0.4s (inside the 0.6s budget) and cuts
     over, the second would land at 0.8s and the deadline fires *)
  Sim.Fault.set_latency ~node:to_node fault ~mean:0.4 ~jitter:0.0;
  st.Citus.State.config.Citus.State.move_timeout <- 0.6;
  (match Citus.Rebalancer.move_shard_group st ~shard_id ~to_node with
   | _ -> Alcotest.fail "group move should have timed out"
   | exception Cluster.Connection.Timed_out _ -> ());
  Alcotest.(check int) "timeout counted" 1
    (counter cluster Obs.Metric_names.rebalance_move_timeouts);
  (* both siblings ended up back where they started *)
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d back on the source" sh.Citus.Metadata.shard_id)
        from_node
        (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id))
    (Citus.Metadata.colocated_shards meta shard);
  check_int s "colocated join survives the abandoned move" 1
    "SELECT count(*) FROM t JOIN u ON t.k = u.k WHERE t.k = 1";
  (* with the latency gone the group moves as one *)
  Sim.Fault.quiesce fault;
  let m = Citus.Rebalancer.move_shard_group st ~shard_id ~to_node in
  Alcotest.(check int) "both siblings moved" 2
    (List.length m.Citus.Rebalancer.moved_shards)

(* --- the chaos matrix: skewed clocks, fumbled commits, no torn reads --- *)

(* --- worker autovacuum: every node's daemon vacuums its own shards --- *)

(* A shard's table as its worker stores it. *)
let shard_on f (sh : Citus.Metadata.shard) =
  let node =
    Cluster.Topology.find_node f.cluster
      (Citus.Metadata.placement f.citus.Citus.Api.metadata sh.Citus.Metadata.shard_id)
  in
  Engine.Catalog.find_table
    (Engine.Instance.catalog node.Cluster.Topology.instance)
    (Citus.Metadata.shard_name sh)

let shard_table f ?(table = "accounts") key =
  shard_on f
    (Citus.Metadata.shard_for_value f.citus.Citus.Api.metadata ~table (Datum.Int key))

let shard_heap tbl =
  match tbl.Engine.Catalog.store with
  | Engine.Catalog.Heap_store h -> h
  | Engine.Catalog.Columnar_store _ -> Alcotest.fail "expected a heap shard"

let shards f table =
  List.map (shard_on f) (Citus.Metadata.shards_of f.citus.Citus.Api.metadata table)

(* Dead versions summed over every shard of [table]. *)
let dead_in_shards f table =
  List.fold_left
    (fun acc tbl -> acc + Storage.Heap.dead_estimate (shard_heap tbl))
    0 (shards f table)

(* Tids the shard's primary-key B-tree holds for [key]. *)
let pk_tids tbl key =
  List.concat_map
    (fun (idx : Engine.Catalog.index) ->
      match idx.Engine.Catalog.kind with
      | Engine.Catalog.Btree_index { columns; tree }
        when columns = tbl.Engine.Catalog.primary_key ->
        List.map snd (Storage.Btree.prefix tree [| Datum.Int key |])
      | _ -> [])
    tbl.Engine.Catalog.indexes

let update_key_times s ~key n =
  for i = 1 to n do
    ignore
      (exec s
         (Printf.sprintf "UPDATE accounts SET balance = %d WHERE key = %d"
            (initial_balance + i) key))
  done

let check_one_version f ~key =
  let tbl = shard_table f key in
  let h = shard_heap tbl in
  Alcotest.(check int) "no dead versions" 0 (Storage.Heap.dead_estimate h);
  Alcotest.(check int) "one tid for the key" 1 (List.length (pk_tids tbl key));
  let live =
    one_int
      (Engine.Instance.connect
         (Cluster.Topology.find_node f.cluster (node_of f.citus key))
           .Cluster.Topology.instance)
      (Printf.sprintf "SELECT count(*) FROM %s" tbl.Engine.Catalog.tbl_name)
  in
  Alcotest.(check int) "one version per row" live (Storage.Heap.live_estimate h)

let test_worker_autovacuum () =
  let f = accounts ~n_keys:4 ~one_txn:true ~seed:1 ~replication:1 () in
  let s = Citus.Api.connect f.citus in
  update_key_times s ~key:0 60;
  let tbl = shard_table f 0 in
  Alcotest.(check bool) "dead versions piled up" true
    (Storage.Heap.dead_estimate (shard_heap tbl) > 50);
  Alcotest.(check int) "every version indexed" 61 (List.length (pk_tids tbl 0));
  Citus.Api.maintenance f.citus;
  check_one_version f ~key:0;
  check_int s "latest value" (initial_balance + 60)
    "SELECT balance FROM accounts WHERE key = 0"

let test_downed_worker_skipped () =
  let f = accounts ~n_keys:4 ~one_txn:true ~seed:2 ~replication:1 () in
  let fault = fault_of f.cluster in
  let s = Citus.Api.connect f.citus in
  update_key_times s ~key:0 60;
  let worker = node_of f.citus 0 in
  let ticks () = counter f.cluster Obs.Metric_names.engine_maintenance_ticks in
  Sim.Fault.crash_now fault worker;
  let before = ticks () in
  Citus.Api.maintenance f.citus;
  Alcotest.(check int) "every node but the downed one ticked" 3 (ticks () - before);
  Sim.Fault.restart_now fault worker;
  Alcotest.(check bool) "replay restored the dead versions" true
    (Storage.Heap.dead_estimate (shard_heap (shard_table f 0)) > 50);
  Citus.Api.maintenance f.citus;
  Alcotest.(check int) "all four nodes ticked" 4 (ticks () - before - 3);
  check_one_version f ~key:0

(* Retention deletes, then the daemon's vacuum: the ILIKE dashboard on
   the GIN trigram index answers as before, agrees with a scan that
   cannot use the index, and no shard's GIN hands out a reclaimed tid —
   also once new rows have reused the freed slots. *)
let test_dashboard_across_vacuum () =
  let f = accounts ~n_keys:1 ~seed:3 ~replication:1 () in
  let s = Citus.Api.connect f.citus in
  ignore (exec s "CREATE TABLE events (id bigint PRIMARY KEY, msg text)");
  ignore (exec s "SELECT create_distributed_table('events', 'id')");
  ignore (exec s "CREATE INDEX events_trgm ON events USING GIN ((msg) gin_trgm_ops)");
  let msg i =
    match i mod 3 with
    | 0 -> Printf.sprintf "fix Postgres planner %d" i
    | 1 -> Printf.sprintf "update readme %d" i
    | _ -> Printf.sprintf "postgresql rocks %d" i
  in
  let insert lo hi =
    ignore (exec s "BEGIN");
    for i = lo to hi do
      ignore
        (exec s (Printf.sprintf "INSERT INTO events (id, msg) VALUES (%d, '%s')" i (msg i)))
    done;
    ignore (exec s "COMMIT")
  in
  let ids sql =
    List.map
      (function [| Datum.Int i |] -> i | _ -> Alcotest.fail "expected an id")
      (exec s sql).Engine.Instance.rows
  in
  let dashboard () = ids "SELECT id FROM events WHERE msg ILIKE '%postgres%' ORDER BY id" in
  let by_scan () = ids "SELECT id FROM events WHERE lower(msg) LIKE '%postgres%' ORDER BY id" in
  let no_stale_tids () =
    List.iter
      (fun tbl ->
        List.iter
          (fun (idx : Engine.Catalog.index) ->
            match idx.Engine.Catalog.kind with
            | Engine.Catalog.Gin_index { gin; _ } ->
              List.iter
                (fun tid ->
                  if Storage.Heap.header (shard_heap tbl) ~tid = None then
                    Alcotest.fail (Printf.sprintf "stale tid %d in %s" tid idx.idx_name))
                (Option.get (Storage.Gin.candidates gin "postgres"))
            | Engine.Catalog.Btree_index _ -> ())
          tbl.Engine.Catalog.indexes)
      (shards f "events")
  in
  insert 1 900;
  ignore (exec s "DELETE FROM events WHERE id <= 720");
  let before = dashboard () in
  Alcotest.(check (list int)) "index agrees with scan" (by_scan ()) before;
  Alcotest.(check bool) "retention left dead versions" true (dead_in_shards f "events" > 0);
  Citus.Api.maintenance f.citus;
  Alcotest.(check int) "every shard vacuumed" 0 (dead_in_shards f "events");
  no_stale_tids ();
  Alcotest.(check (list int)) "same rows after vacuum" before (dashboard ());
  insert 901 1000;
  let after = dashboard () in
  Alcotest.(check (list int)) "reused slots indexed" (by_scan ()) after;
  Alcotest.(check (list int)) "old rows plus new matches" after
    (before @ List.filter (fun i -> i mod 3 <> 1) (List.init 100 (fun i -> 901 + i)));
  no_stale_tids ()

(* Transfers pile dead versions on every worker; after the daemon
   vacuums them, a snapshot-level sum still reads the conserved total,
   before and after further transfers reuse the freed slots. *)
let test_snapshot_sum_after_worker_vacuum () =
  let f = accounts ~n_keys:8 ~one_txn:true ~seed:4 ~replication:1 () in
  let s = Citus.Api.connect f.citus in
  let transfers n =
    for i = 1 to n do
      let k1 = i mod f.n_keys and k2 = (i + 3) mod f.n_keys in
      begin_transfer s ~k1 ~k2 ~amount:(1 + (i mod 5));
      ignore (exec s "COMMIT")
    done
  in
  transfers 300;
  Alcotest.(check bool) "dead versions piled up" true (dead_in_shards f "accounts" > 0);
  Citus.Api.maintenance f.citus;
  Alcotest.(check int) "every shard vacuumed" 0 (dead_in_shards f "accounts");
  ignore (exec s "SELECT citus_set_config('consistency', 'snapshot')");
  Alcotest.(check int) "conserved after vacuum" (f.n_keys * initial_balance) (sum_balances s);
  transfers 40;
  Alcotest.(check int) "conserved after reuse" (f.n_keys * initial_balance) (sum_balances s)

let n_stmts = 30
let timeout = 0.5

let make_chaos_cluster ~seed =
  let configure (cfg : Citus.State.config) =
    cfg.Citus.State.statement_timeout <- timeout;
    cfg.Citus.State.hedge_threshold <- 0.05
  in
  accounts ~n_keys ~configure ~one_txn:true ~seed ~replication:2 ()

let schedule_skew_storm f rng =
  let fault = fault_of f.cluster in
  let workers = worker_names f.cluster in
  let horizon = float_of_int n_stmts *. clock_step in
  Sim.Fault.set_latency fault ~mean:0.005 ~jitter:0.005;
  Sim.Fault.set_drop_rate fault ~request:0.02 ~reply:0.02;
  (* worker clocks bend by whole seconds, with drift — far beyond any
     commit latency, so uncorrected timestamps would order commits
     wildly wrong across nodes *)
  for _ = 1 to 2 do
    let at = Random.State.float rng (horizon *. 0.5) in
    let offset = Random.State.float rng 6.0 -. 3.0 in
    let drift = Random.State.float rng 0.1 -. 0.05 in
    Sim.Fault.schedule_skew fault ~at ~offset ~drift (pick rng workers)
  done;
  (* one brownout, to push reads onto the hedging path *)
  let at = Random.State.float rng (horizon *. 0.8) in
  Sim.Fault.schedule_stall fault ~at ~extra:1.5 ~duration:1.0 (pick rng workers)

(* A transfer; with probability ~1/4 its COMMIT PREPARED fan-out to one
   worker is fumbled (injected failure, cleared right after), leaving an
   in-doubt window that persists until a reader resolves it. *)
let fumbling_transfer st rng c ~k1 ~k2 ~amount =
  ignore (session c);
  let fumble = Random.State.int rng 4 = 0 in
  if fumble then
    Citus.State.inject_failure st
      ~node:(Printf.sprintf "worker%d" (1 + Random.State.int rng 3))
      ~matching:"COMMIT PREPARED";
  let outcome = transfer c ~k1 ~k2 ~amount in
  if fumble then Citus.State.clear_failures st;
  outcome

(* One scatter-gather sum at the given consistency level. *)
let read_total st c level =
  let s = session c in
  let saved = st.Citus.State.config.Citus.State.consistency in
  st.Citus.State.config.Citus.State.consistency <- level;
  let r =
    match sum_balances s with
    | total -> Ok total
    | exception _ ->
      rollback_quietly s;
      Error ()
  in
  st.Citus.State.config.Citus.State.consistency <- saved;
  r

let run_chaos ~seed () =
  let f = make_chaos_cluster ~seed in
  trace_on f;
  let st = Citus.Api.coordinator_state f.citus in
  let wl = rng seed 0x0b5e in
  schedule_skew_storm f (rng seed 0x5caf);
  st.Citus.State.config.Citus.State.consistency <- Citus.State.Snapshot;
  let outcomes = ref [] in
  let reads = ref [] in
  let torn = ref 0 in
  let c = client f.citus in
  for i = 1 to n_stmts do
    tick f;
    if i mod 3 = 0 then begin
      (* eventual first: it may tear, and it never resolves the windows
         the snapshot read is about to hit *)
      (match read_total st c Citus.State.Eventual with
       | Ok t when t <> expected_total -> incr torn
       | _ -> ());
      let r =
        match read_total st c Citus.State.Snapshot with
        | Ok total ->
          (* the tentpole invariant: a snapshot read that answers at all
             answers exactly — under fumbled commits and skewed clocks *)
          if total <> expected_total then
            Alcotest.fail
              (tag seed
                 (Printf.sprintf "torn snapshot read at stmt %d: got %d, want %d"
                    i total expected_total));
          Printf.sprintf "ok %d" total
        | Error () -> "failed"
      in
      reads := r :: !reads
    end
    else begin
      let k1, k2, amount = draw_transfer wl ~n_keys in
      outcomes := fumbling_transfer st wl c ~k1 ~k2 ~amount :: !outcomes
    end
  done;
  Citus.State.clear_failures st;
  quiesce ~bounce:false f;
  let total = final_total f in
  (f, List.rev !outcomes, List.rev !reads, !torn, total)

(* Accumulated across the matrix: the no-torn-read check is vacuous
   unless readers really hit open in-doubt windows somewhere, and the
   eventual-level tear proves the windows were observable. *)
let m_indoubt_waits = ref 0
let m_resolved = ref 0
let m_snapshot_reads = ref 0
let m_torn_eventual = ref 0
let m_hedged = ref 0

let test_seed seed () =
  let f, outcomes, reads, torn, total = run_chaos ~seed () in
  let c name = counter f.cluster name in
  m_indoubt_waits := !m_indoubt_waits + c Obs.Metric_names.snapshot_indoubt_waits;
  m_resolved :=
    !m_resolved
    + c Obs.Metric_names.snapshot_indoubt_commits
    + c Obs.Metric_names.snapshot_indoubt_rollbacks;
  m_snapshot_reads := !m_snapshot_reads + c Obs.Metric_names.snapshot_reads;
  m_torn_eventual := !m_torn_eventual + torn;
  m_hedged := !m_hedged + c Obs.Metric_names.snapshot_hedged_fragments;
  check_invariants ~seed ~total f;
  check_some_committed ~seed outcomes;
  Alcotest.(check bool)
    (tag seed "some snapshot reads answered")
    true
    (List.exists (fun r -> r <> "failed") reads)

(* runs after the matrix (Alcotest executes cases in order, one process) *)
let test_storm_was_live () =
  Alcotest.(check bool)
    (Printf.sprintf
       "readers really hit open in-doubt windows across the matrix \
        (waits=%d resolved=%d snapshot reads=%d torn eventual reads=%d \
        hedged fragments=%d)"
       !m_indoubt_waits !m_resolved !m_snapshot_reads !m_torn_eventual
       !m_hedged)
    true
    (!m_indoubt_waits > 0 && !m_resolved > 0 && !m_snapshot_reads > 0
   && !m_torn_eventual > 0)

let observe seed =
  let f, outcomes, reads, torn, total = run_chaos ~seed () in
  observable f
    [
      ("outcomes", List.map outcome_name outcomes);
      ("read results", reads);
      ("torn count", [ string_of_int torn ]);
      ("total", [ string_of_int total ]);
    ]

let () =
  Alcotest.run "snapshot"
    [
      ( "knob",
        [ Alcotest.test_case "citus_set_config" `Quick test_consistency_knob ] );
      ( "consistency-levels",
        [
          Alcotest.test_case "eventual read is torn" `Quick
            test_eventual_read_is_torn;
          Alcotest.test_case "read_your_writes heals" `Quick
            test_read_your_writes_heals;
          Alcotest.test_case "snapshot heals" `Quick test_snapshot_heals;
          Alcotest.test_case "aborted orphan rolled back" `Quick
            test_snapshot_resolves_aborted_orphan;
          Alcotest.test_case "in-doubt decision table" `Quick
            test_indoubt_decision_table;
          Alcotest.test_case "snapshot sees its own COPY" `Quick test_snapshot_sees_own_copy;
        ] );
      ( "hedging",
        [
          Alcotest.test_case "per-fragment scatter-gather hedging" `Quick
            test_scatter_gather_fragment_hedging;
        ] );
      ( "move-timeout",
        [
          Alcotest.test_case "abandons cleanly" `Quick
            test_move_timeout_abandons_cleanly;
          Alcotest.test_case "rolls back the group" `Quick
            test_move_timeout_rolls_back_group;
        ] );
      ( "worker autovacuum",
        [
          Alcotest.test_case "one version after the tick" `Quick test_worker_autovacuum;
          Alcotest.test_case "downed worker skipped" `Quick test_downed_worker_skipped;
          Alcotest.test_case "dashboard across vacuum" `Quick
            test_dashboard_across_vacuum;
          Alcotest.test_case "snapshot sum after vacuum" `Quick
            test_snapshot_sum_after_worker_vacuum;
        ] );
      ( "skew-matrix",
        seed_cases ~first:1 (width ~default:6) test_seed
        @ [ Alcotest.test_case "the storm was live" `Quick test_storm_was_live ]
      );
      ( "reproducibility",
        [
          Alcotest.test_case "same seed, same storm" `Quick
            (test_reproducible ~observe ~seed:2 ~other:5);
        ] );
    ]
