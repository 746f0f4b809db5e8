(* Tenant isolation, consistent restore points, EXPLAIN, adaptive-executor
   timeline, and the sim cost model. *)

let make ?(workers = 2) ?(shard_count = 8) ?fault_seed () =
  let cluster = Cluster.Topology.create ~workers ?fault_seed () in
  let citus = Citus.Api.install ~shard_count cluster in
  let s = Citus.Api.connect citus in
  (cluster, citus, s)

let exec s sql = Engine.Instance.exec s sql

let one_int s sql =
  match (exec s sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | _ -> Alcotest.fail ("no int from " ^ sql)

let check_int s msg expected sql = Alcotest.(check int) msg expected (one_int s sql)

(* --- tenant isolation --- *)

let setup_tenants s =
  ignore (exec s "CREATE TABLE accounts (tenant bigint, id bigint, v text)");
  ignore (exec s "SELECT create_distributed_table('accounts', 'tenant')");
  ignore (exec s "CREATE TABLE notes (tenant bigint, note text)");
  ignore (exec s "SELECT create_distributed_table('notes', 'tenant', 'accounts')");
  ignore (exec s "BEGIN");
  for tenant = 1 to 10 do
    for i = 1 to 5 do
      ignore
        (exec s
           (Printf.sprintf
              "INSERT INTO accounts (tenant, id, v) VALUES (%d, %d, 't%d')" tenant
              i tenant));
      ignore
        (exec s
           (Printf.sprintf "INSERT INTO notes (tenant, note) VALUES (%d, 'n')" tenant))
    done
  done;
  ignore (exec s "COMMIT")

let test_isolate_tenant () =
  let _, citus, s = make () in
  setup_tenants s;
  let st = Citus.Api.coordinator_state citus in
  let before_shards =
    List.length (Citus.Metadata.shards_of citus.Citus.Api.metadata "accounts")
  in
  let ids = Citus.Tenant.isolate_tenant st ~table:"accounts" ~value:(Datum.Int 7) in
  Alcotest.(check int) "one new shard per colocated table" 2 (List.length ids);
  let meta = citus.Citus.Api.metadata in
  (* the tenant's shard now covers exactly its hash *)
  let tenant_shard =
    Citus.Metadata.shard_for_value meta ~table:"accounts" (Datum.Int 7)
  in
  Alcotest.(check int) "tenant shard id" (List.hd ids)
    tenant_shard.Citus.Metadata.shard_id;
  Alcotest.(check int32) "point range" tenant_shard.Citus.Metadata.min_hash
    tenant_shard.Citus.Metadata.max_hash;
  Alcotest.(check bool) "more shards than before" true
    (List.length (Citus.Metadata.shards_of meta "accounts") > before_shards);
  (* all data is still reachable and correct *)
  check_int s "tenant rows intact" 5
    "SELECT count(*) FROM accounts WHERE tenant = 7";
  check_int s "all rows intact" 50 "SELECT count(*) FROM accounts";
  check_int s "colocated join still works" 25
    "SELECT count(*) FROM accounts JOIN notes ON accounts.tenant = notes.tenant \
     WHERE accounts.tenant = 7";
  (* colocation invariant: ranges still tile and groups still align *)
  Alcotest.(check bool) "still colocated" true
    (Citus.Metadata.colocated meta [ "accounts"; "notes" ])

let test_isolate_then_move () =
  let _, citus, s = make () in
  setup_tenants s;
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let before =
    Citus.Metadata.placement meta
      (Citus.Metadata.shard_for_value meta ~table:"accounts" (Datum.Int 3))
        .Citus.Metadata.shard_id
  in
  let to_node = if before = "worker1" then "worker2" else "worker1" in
  let m =
    Citus.Tenant.isolate_tenant_to_node st ~table:"accounts" ~value:(Datum.Int 3)
      ~to_node
  in
  Alcotest.(check string) "moved" to_node m.Citus.Rebalancer.to_node;
  check_int s "data intact after isolate+move" 5
    "SELECT count(*) FROM accounts WHERE tenant = 3";
  check_int s "all rows" 50 "SELECT count(*) FROM accounts"

let test_isolate_via_udf () =
  let _, _, s = make () in
  setup_tenants s;
  match
    (exec s "SELECT isolate_tenant_to_new_shard('accounts', 5)").Engine.Instance.rows
  with
  | [ [| Datum.Int _ |] ] ->
    check_int s "data intact" 50 "SELECT count(*) FROM accounts"
  | _ -> Alcotest.fail "udf failed"

(* Isolation at replication factor 2, with a B-tree and a GIN index:
   every placement of every new shard holds the table with the index set
   its untouched siblings have, the old shard is gone everywhere, and the
   tenant stays writable with no placement marked Inactive. *)
let test_isolate_tenant_replicated () =
  let cluster, citus, s = make ~workers:3 () in
  ignore (exec s "SELECT citus_set_replication_factor(2)");
  ignore (exec s "CREATE TABLE accounts (tenant bigint, id bigint, v text)");
  ignore (exec s "CREATE INDEX accounts_v ON accounts USING BTREE (v)");
  ignore
    (exec s "CREATE INDEX accounts_trgm ON accounts USING GIN ((v) gin_trgm_ops)");
  ignore (exec s "SELECT create_distributed_table('accounts', 'tenant')");
  for tenant = 1 to 10 do
    for i = 1 to 5 do
      ignore
        (exec s
           (Printf.sprintf
              "INSERT INTO accounts (tenant, id, v) VALUES (%d, %d, 'tenant%d')"
              tenant i tenant))
    done
  done;
  let meta = citus.Citus.Api.metadata in
  let old = Citus.Metadata.shard_for_value meta ~table:"accounts" (Datum.Int 7) in
  let st = Citus.Api.coordinator_state citus in
  let ids = Citus.Tenant.isolate_tenant st ~table:"accounts" ~value:(Datum.Int 7) in
  let catalog node =
    Engine.Instance.catalog
      (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
  in
  (* index names with the shard id taken off, comparable across shards *)
  let index_set node (sh : Citus.Metadata.shard) =
    let suffix = Printf.sprintf "_%d" sh.Citus.Metadata.shard_id in
    match
      Engine.Catalog.find_table_opt (catalog node) (Citus.Metadata.shard_name sh)
    with
    | None ->
      Alcotest.fail
        (Printf.sprintf "%s missing on %s" (Citus.Metadata.shard_name sh) node)
    | Some tbl ->
      List.sort compare
        (List.map
           (fun (i : Engine.Catalog.index) ->
             let n = i.Engine.Catalog.idx_name in
             if String.ends_with ~suffix n then
               String.sub n 0 (String.length n - String.length suffix)
             else n)
           tbl.Engine.Catalog.indexes)
  in
  let in_old_range (sh : Citus.Metadata.shard) =
    Int32.compare sh.Citus.Metadata.min_hash old.Citus.Metadata.min_hash >= 0
    && Int32.compare sh.Citus.Metadata.max_hash old.Citus.Metadata.max_hash <= 0
  in
  let news, siblings =
    List.partition in_old_range (Citus.Metadata.shards_of meta "accounts")
  in
  Alcotest.(check bool) "the shard was split" true (List.length news >= 2);
  let sibling = List.hd siblings in
  let expected =
    index_set
      (Citus.Metadata.placement meta sibling.Citus.Metadata.shard_id)
      sibling
  in
  Alcotest.(check (list string)) "siblings carry both indexes"
    [ "accounts_trgm"; "accounts_v" ] expected;
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let nodes = Citus.Metadata.placements meta sh.Citus.Metadata.shard_id in
      Alcotest.(check int) "two placements" 2 (List.length nodes);
      List.iter
        (fun node ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s on %s" (Citus.Metadata.shard_name sh) node)
            expected (index_set node sh))
        nodes)
    news;
  List.iter
    (fun (node : Cluster.Topology.node) ->
      Alcotest.(check bool)
        ("old shard dropped on " ^ node.Cluster.Topology.node_name)
        true
        (Engine.Catalog.find_table_opt
           (catalog node.Cluster.Topology.node_name)
           (Citus.Metadata.shard_name old)
         = None))
    (Cluster.Topology.data_nodes cluster);
  ignore (exec s "INSERT INTO accounts (tenant, id, v) VALUES (7, 6, 'tenant7 new')");
  check_int s "tenant rows" 6 "SELECT count(*) FROM accounts WHERE tenant = 7";
  check_int s "trigram search" 1
    "SELECT count(*) FROM accounts WHERE tenant = 7 AND v LIKE '%7 new%'";
  check_int s "all rows" 51 "SELECT count(*) FROM accounts";
  Alcotest.(check int) "no inactive placement" 0
    (List.length (Citus.Metadata.inactive_placements meta));
  Alcotest.(check int) "tenant shard id"
    (List.hd ids)
    (Citus.Metadata.shard_for_value meta ~table:"accounts" (Datum.Int 7))
      .Citus.Metadata.shard_id

(* --- consistent restore points --- *)

let test_restore_point_on_all_nodes () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "SELECT citus_create_restore_point('backup1')");
  let st = Citus.Api.coordinator_state citus in
  Alcotest.(check bool) "consistent" true
    (Citus.Backup.restore_point_is_consistent st "backup1");
  List.iter
    (fun (_node, pos) ->
      Alcotest.(check bool) "present" true (pos <> None))
    (Citus.Backup.restore_point_positions st "backup1")

let test_restore_point_fails_when_partitioned () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  let st = Citus.Api.coordinator_state citus in
  Citus.State.partition_node st "worker2";
  (match exec s "SELECT citus_create_restore_point('backup2')" with
   | exception _ -> ()
   | _ -> Alcotest.fail "restore point must fail with an unreachable node");
  Citus.State.heal_node st "worker2";
  Alcotest.(check bool) "not consistent" false
    (Citus.Backup.restore_point_is_consistent st "backup2")

(* --- node failures during queries --- *)

let test_worker_failure_mid_query () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to 20 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, %d)" i i))
  done;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  Citus.State.partition_node st "worker2";
  (* a multi-shard query must fail with a clean session error, not a stuck
     session *)
  (match exec s "SELECT count(*) FROM t" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "query should fail while a worker is down");
  Citus.State.heal_node st "worker2";
  (* the session recovers and answers correctly *)
  check_int s "after heal" 20 "SELECT count(*) FROM t";
  (* and writes still work *)
  ignore (exec s "INSERT INTO t (k, v) VALUES (100, 1)");
  check_int s "write after heal" 21 "SELECT count(*) FROM t"

(* --- EXPLAIN --- *)

let contains ~needle hay =
  Engine.Expr_eval.like_match ~pattern:("%" ^ needle ^ "%") ~ci:true hay

let test_explain_tiers () =
  let _, _citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  let explain sql =
    match
      (exec s (Printf.sprintf "SELECT citus_explain('%s')" sql))
        .Engine.Instance.rows
    with
    | [ [| Datum.Text e |] ] -> e
    | _ -> Alcotest.fail "no explain output"
  in
  Alcotest.(check bool) "fast path" true
    (contains ~needle:"fast path" (explain "SELECT * FROM t WHERE k = 1"));
  Alcotest.(check bool) "pushdown" true
    (contains ~needle:"logical pushdown" (explain "SELECT count(*) FROM t"));
  Alcotest.(check bool) "merge shown" true
    (contains ~needle:"Merge step" (explain "SELECT count(*) FROM t"));
  Alcotest.(check bool) "task fanout" true
    (contains ~needle:"Tasks: 8" (explain "SELECT count(*) FROM t"));
  Alcotest.(check bool) "local" true
    (contains ~needle:"Local execution" (explain "SELECT 1"))

let test_explain_join_order () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE big (k bigint, cat bigint)");
  ignore (exec s "SELECT create_distributed_table('big', 'k')");
  ignore (exec s "CREATE TABLE small (id bigint, cat bigint)");
  ignore (exec s "SELECT create_distributed_table('small', 'id')");
  ignore (exec s "INSERT INTO small (id, cat) VALUES (1, 1), (2, 2)");
  let st = Citus.Api.coordinator_state citus in
  let out =
    Citus.Explain.explain st
      "SELECT count(*) FROM big JOIN small ON big.cat = small.cat"
  in
  Alcotest.(check bool) "names the planner" true
    (contains ~needle:"join-order" out);
  Alcotest.(check bool) "names the anchor" true (contains ~needle:"Anchor" out)

(* --- introspection --- *)

let test_citus_shards_introspection () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "CREATE TABLE d (id bigint)");
  ignore (exec s "SELECT create_reference_table('d')");
  (match (exec s "SELECT citus_shards()").Engine.Instance.rows with
   | [ [| Datum.Json (Json.Arr shards) |] ] ->
     Alcotest.(check int) "8 dist shards + 1 reference shard" 9
       (List.length shards)
   | _ -> Alcotest.fail "citus_shards failed");
  match (exec s "SELECT citus_tables()").Engine.Instance.rows with
  | [ [| Datum.Json (Json.Arr tables) |] ] ->
    Alcotest.(check int) "two citus tables" 2 (List.length tables);
    let kinds =
      List.filter_map
        (fun t ->
          match Json.get_field t "kind" with
          | Some (Json.Str k) -> Some k
          | _ -> None)
        tables
      |> List.sort String.compare
    in
    Alcotest.(check (list string)) "kinds" [ "distributed"; "reference" ] kinds
  | _ -> Alcotest.fail "citus_tables failed"

let test_subquery_on_reference_table_allowed () =
  (* subqueries over reference tables are shard-local (every node has the
     replica) and therefore fine inside multi-shard queries *)
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint, cat bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "CREATE TABLE allowed (cat bigint)");
  ignore (exec s "SELECT create_reference_table('allowed')");
  ignore (exec s "INSERT INTO allowed VALUES (1), (3)");
  ignore (exec s "BEGIN");
  for i = 1 to 20 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, cat) VALUES (%d, %d)" i (i mod 5)))
  done;
  ignore (exec s "COMMIT");
  check_int s "IN over reference" 8
    "SELECT count(*) FROM t WHERE cat IN (SELECT cat FROM allowed)"

(* --- adaptive executor: slow start measured on the virtual clock --- *)

(* A distributed table with enough rows that a shard-local read has a
   measurable modeled cost, plus a fresh session (empty pools) to run
   hand-built task lists through the real executor. *)
let exec_fixture ?(rows = 64) ?fault_seed ?(replication = 1) () =
  let _, citus, s = make ?fault_seed () in
  if replication > 1 then
    ignore
      (exec s
         (Printf.sprintf "SELECT citus_set_replication_factor(%d)" replication));
  ignore (exec s "CREATE TABLE t (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to rows do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, %d)" i i))
  done;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard =
    match Citus.Metadata.shards_of meta "t" with
    | s :: _ -> s
    | [] -> Alcotest.fail "no shards"
  in
  (st, Citus.Api.connect citus, meta, shard)

(* [n] identical shard-local reads of the same placement: every task
   competes for connections to one node, which is exactly the slow-start
   ramp's worst case *)
let read_tasks meta (shard : Citus.Metadata.shard) n =
  List.init n (fun _ ->
      {
        Citus.Plan.task_node =
          Citus.Metadata.placement meta shard.Citus.Metadata.shard_id;
        task_stmt =
          (Sqlfront.Parser.parse_statement
             (Printf.sprintf "SELECT count(*) FROM %s"
                (Citus.Metadata.shard_name shard)) [@lint.sql_static]);
        task_group = shard.Citus.Metadata.index_in_colocation;
        task_shard = shard.Citus.Metadata.shard_id;
      })

let total_conns (r : Citus.Adaptive_executor.report) =
  List.fold_left (fun acc (_, c) -> acc + c) 0
    r.Citus.Adaptive_executor.connections_used

let test_slow_start_single_fast_task () =
  (* one task finishes on the first connection before a second would
     open: effective connections = 1 and the measured makespan is the
     task's own duration *)
  let st, s, meta, shard = exec_fixture () in
  let _, r = Citus.Adaptive_executor.execute st s (read_tasks meta shard 1) in
  Alcotest.(check int) "one connection" 1 (total_conns r);
  Alcotest.(check bool) "fragment cost is real" true
    (r.Citus.Adaptive_executor.makespan > 0.0);
  Alcotest.(check (float 1e-9)) "makespan = the task's duration"
    r.Citus.Adaptive_executor.serial_time r.Citus.Adaptive_executor.makespan

let test_slow_start_many_fast_tasks_stay_serial () =
  (* a ramp interval far beyond the workload: the first connection clears
     all 8 tasks before the second's gate opens — serial, one connection *)
  let st, s, meta, shard = exec_fixture () in
  st.Citus.State.config.Citus.State.slow_start_interval <- 10.0;
  let _, r = Citus.Adaptive_executor.execute st s (read_tasks meta shard 8) in
  Alcotest.(check int) "one connection" 1 (total_conns r);
  Alcotest.(check (float 1e-9)) "fully serial: makespan = sum of durations"
    r.Citus.Adaptive_executor.serial_time r.Citus.Adaptive_executor.makespan

let test_slow_start_long_tasks_ramp_up () =
  (* no ramp delay: all 8 tasks get their own connection and overlap, so
     the measured makespan collapses toward the longest fragment *)
  let st, s, meta, shard = exec_fixture () in
  st.Citus.State.config.Citus.State.slow_start_interval <- 0.0;
  let _, r = Citus.Adaptive_executor.execute st s (read_tasks meta shard 8) in
  Alcotest.(check int) "all parallel" 8 (total_conns r);
  Alcotest.(check bool) "makespan well under serial time" true
    (r.Citus.Adaptive_executor.makespan
     < 0.5 *. r.Citus.Adaptive_executor.serial_time);
  (* the ramp is visible in the report: 8 opens, all at the start *)
  match r.Citus.Adaptive_executor.conn_opened_at with
  | [ (_, opens) ] -> Alcotest.(check int) "eight opens" 8 (List.length opens)
  | other ->
    Alcotest.failf "expected one node in conn_opened_at, got %d"
      (List.length other)

let test_shared_limit_caps_connections () =
  (* pool capped at 4: the 16 tasks drain through 4 connections *)
  let st, s, meta, shard = exec_fixture () in
  st.Citus.State.config.Citus.State.slow_start_interval <- 0.0;
  st.Citus.State.config.Citus.State.pool_size_per_node <- 4;
  let _, r = Citus.Adaptive_executor.execute st s (read_tasks meta shard 16) in
  Alcotest.(check int) "capped" 4 (total_conns r)

let test_connection_affinity_within_txn () =
  (* §3.6.1: inside a transaction, later statements touching the same
     shard group must reuse the connection that holds its uncommitted
     writes *)
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "INSERT INTO t (k, v) VALUES (1, 0), (2, 0), (3, 0)");
  let st = Citus.Api.coordinator_state citus in
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE t SET v = 1 WHERE k = 1");
  let sst = Citus.State.session_state st s in
  let affinity_before = List.length sst.Citus.State.affinity in
  Alcotest.(check bool) "affinity recorded" true (affinity_before >= 1);
  (* the own uncommitted write is visible through the same connection *)
  check_int s "own write visible" 1 "SELECT v FROM t WHERE k = 1";
  ignore (exec s "UPDATE t SET v = v + 1 WHERE k = 1");
  check_int s "chained" 2 "SELECT v FROM t WHERE k = 1";
  (* the number of distinct txn connections equals nodes touched, not
     statements executed *)
  Alcotest.(check bool) "bounded txn connections" true
    (List.length sst.Citus.State.txn_conns <= 2);
  ignore (exec s "COMMIT");
  check_int s "committed" 2 "SELECT v FROM t WHERE k = 1"

let test_multi_shard_select_inside_txn_sees_own_writes () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to 10 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, 1)" i))
  done;
  (* a multi-shard aggregate inside the same transaction must see the
     uncommitted rows (per-connection affinity makes that possible) *)
  check_int s "sees own uncommitted rows" 10 "SELECT count(*) FROM t";
  ignore (exec s "ROLLBACK");
  check_int s "gone after rollback" 0 "SELECT count(*) FROM t"

(* --- sim cost model --- *)

let test_closed_throughput_client_bound () =
  (* light work, few clients: client-population-bound *)
  let r =
    Sim.Cost.closed_throughput ~clients:10 ~think_s:0.0 ~delay_s:0.001
      ~centers:[ { Sim.Cost.demand_s = 0.0001; servers = 16.0 } ]
  in
  Alcotest.(check bool) "not saturated" true (r.Sim.Cost.bottleneck = None);
  Alcotest.(check (float 1.0)) "X = N/R" (10.0 /. 0.0011) r.Sim.Cost.throughput

let test_closed_throughput_resource_bound () =
  let r =
    Sim.Cost.closed_throughput ~clients:1000 ~think_s:0.0 ~delay_s:0.0
      ~centers:
        [
          { Sim.Cost.demand_s = 0.001; servers = 16.0 };
          { Sim.Cost.demand_s = 0.004; servers = 1.0 };
        ]
  in
  (* the disk (center 1) saturates first: X = 1/0.004 = 250 *)
  Alcotest.(check (option int)) "disk bottleneck" (Some 1) r.Sim.Cost.bottleneck;
  Alcotest.(check (float 0.1)) "throughput" 250.0 r.Sim.Cost.throughput

let test_solo_elapsed_overlap () =
  let spec = Sim.Cost.default_spec in
  let d = { Sim.Cost.cpu_s = 0.8; io_s = 0.5 } in
  (* CPU spread over 8 cores = 0.1 < io 0.5: io dominates *)
  Alcotest.(check (float 0.001)) "io bound" 0.5
    (Sim.Cost.solo_elapsed ~spec ~parallelism:8 d);
  (* serial CPU dominates *)
  Alcotest.(check (float 0.001)) "cpu bound" 0.8
    (Sim.Cost.solo_elapsed ~spec ~parallelism:1 d)

let test_demand_of_uses_weights () =
  let spec = Sim.Cost.default_spec in
  let m = { Engine.Meter.zero with Engine.Meter.statements = 10 } in
  let d = Sim.Cost.demand_of ~spec ~meter:m ~misses:75 in
  Alcotest.(check (float 1e-9)) "cpu" (10.0 *. 20.0 *. spec.Sim.Cost.cpu_unit)
    d.Sim.Cost.cpu_s;
  Alcotest.(check (float 1e-9)) "io" (75.0 /. 7500.0) d.Sim.Cost.io_s

(* --- capability model --- *)

let test_capability_matrix_matches_paper () =
  let open Citus.Capability in
  (* spot-check the distinctive cells of Table 2 *)
  Alcotest.(check bool) "HC needs connection scaling" true
    (requires High_performance_crud Connection_scaling = Required);
  Alcotest.(check bool) "MT does not" true
    (requires Multi_tenant Connection_scaling = Not_required);
  Alcotest.(check bool) "DW needs non-colocated joins" true
    (requires Data_warehousing Non_colocated_distributed_joins = Required);
  Alcotest.(check bool) "DW no routing" true
    (requires Data_warehousing Query_routing = Not_required);
  Alcotest.(check bool) "RA columnar is Some" true
    (requires Real_time_analytics Columnar_storage = Some_workloads);
  (* every capability names an implementation site *)
  List.iter
    (fun c -> Alcotest.(check bool) "impl non-empty" true (implemented_by c <> ""))
    capabilities

(* --- the lone-task path: one task that cannot hedge runs on the
   caller's stack, with no scheduler of its own --- *)

let fault_of (st : Citus.State.t) =
  match Cluster.Topology.fault st.Citus.State.cluster with
  | Some f -> f
  | None -> Alcotest.fail "fixture has no fault plan"

let test_lone_task_keeps_outer_fiber () =
  (* a reply that takes virtual time: under an outer scheduler the lone
     task must advance the clock itself, never suspend the outer fiber
     (the spawned sibling would then run first) *)
  let st, s, meta, shard = exec_fixture ~fault_seed:3 () in
  Sim.Fault.set_latency (fault_of st) ~mean:0.02 ~jitter:0.0;
  let sibling_ran, r =
    Citus.State.with_sched st (fun sched ->
        let ran = ref false in
        let sibling = Sim.Sched.spawn sched (fun () -> ran := true) in
        let _, r = Citus.Adaptive_executor.execute st s (read_tasks meta shard 1) in
        let ran_during = !ran in
        Sim.Sched.await sched sibling;
        (ran_during, r))
  in
  Alcotest.(check bool) "outer fiber never suspended" false sibling_ran;
  Alcotest.(check bool) "the reply wait took its latency" true
    (r.Citus.Adaptive_executor.makespan
     >= r.Citus.Adaptive_executor.serial_time +. 0.02 -. 1e-9)

let test_lone_task_draws_hazard () =
  let st, s, meta, shard = exec_fixture ~fault_seed:3 () in
  Sim.Fault.set_suspension_hazard (fault_of st) ~p:1.0 ~stall:0.5;
  let _, r = Citus.Adaptive_executor.execute st s (read_tasks meta shard 1) in
  Alcotest.(check (float 1e-9)) "delayed by the stall"
    (r.Citus.Adaptive_executor.serial_time +. 0.5)
    r.Citus.Adaptive_executor.makespan

let test_lone_read_still_hedges () =
  let st, s, meta, shard = exec_fixture ~fault_seed:3 ~replication:2 () in
  let m = Cluster.Topology.metrics st.Citus.State.cluster in
  let task = List.hd (read_tasks meta shard 1) in
  Sim.Fault.stall_node (fault_of st) ~node:task.Citus.Plan.task_node ~extra:5.0
    ~duration:120.0;
  st.Citus.State.config.Citus.State.hedge_threshold <- 0.05;
  let hedged = Obs.Metrics.counter_value m Obs.Metric_names.exec_hedged_reads in
  let _, r = Citus.Adaptive_executor.execute st s [ task ] in
  Alcotest.(check int) "one hedge" 1
    (Obs.Metrics.counter_value m Obs.Metric_names.exec_hedged_reads - hedged);
  Alcotest.(check bool) "escaped the stall" true
    (r.Citus.Adaptive_executor.makespan < 1.0)

let test_lone_task_times_out () =
  let st, s, meta, shard = exec_fixture ~fault_seed:3 () in
  let task = List.hd (read_tasks meta shard 1) in
  Sim.Fault.stall_node (fault_of st) ~node:task.Citus.Plan.task_node ~extra:5.0
    ~duration:120.0;
  st.Citus.State.config.Citus.State.statement_timeout <- 0.1;
  let clock = st.Citus.State.cluster.Cluster.Topology.clock in
  let t0 = Sim.Clock.now clock in
  match Citus.Adaptive_executor.execute st s [ task ] with
  | _ -> Alcotest.fail "expected the statement timeout"
  | exception Cluster.Connection.Timed_out { deadline; _ } ->
    Alcotest.(check (float 1e-9)) "deadline" (t0 +. 0.1) deadline;
    Alcotest.(check (float 1e-9)) "raised at the deadline" deadline
      (Sim.Clock.now clock)

let () =
  Alcotest.run "citus_features"
    [
      ( "tenant_isolation",
        [
          Alcotest.test_case "isolate" `Quick test_isolate_tenant;
          Alcotest.test_case "isolate replicated" `Quick
            test_isolate_tenant_replicated;
          Alcotest.test_case "isolate + move" `Quick test_isolate_then_move;
          Alcotest.test_case "via udf" `Quick test_isolate_via_udf;
        ] );
      ( "restore_points",
        [
          Alcotest.test_case "all nodes" `Quick test_restore_point_on_all_nodes;
          Alcotest.test_case "partitioned fails" `Quick
            test_restore_point_fails_when_partitioned;
        ] );
      ( "failures",
        [
          Alcotest.test_case "worker down mid-query" `Quick
            test_worker_failure_mid_query;
        ] );
      ( "explain",
        [
          Alcotest.test_case "tiers" `Quick test_explain_tiers;
          Alcotest.test_case "join order" `Quick test_explain_join_order;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "citus_shards/tables" `Quick
            test_citus_shards_introspection;
          Alcotest.test_case "reference subquery" `Quick
            test_subquery_on_reference_table_allowed;
        ] );
      ( "adaptive_executor",
        [
          Alcotest.test_case "single fast task" `Quick
            test_slow_start_single_fast_task;
          Alcotest.test_case "fast tasks stay serial" `Quick
            test_slow_start_many_fast_tasks_stay_serial;
          Alcotest.test_case "long tasks ramp up" `Quick
            test_slow_start_long_tasks_ramp_up;
          Alcotest.test_case "shared limit" `Quick test_shared_limit_caps_connections;
          Alcotest.test_case "lone task keeps outer fiber" `Quick
            test_lone_task_keeps_outer_fiber;
          Alcotest.test_case "lone task draws hazard" `Quick
            test_lone_task_draws_hazard;
          Alcotest.test_case "lone read still hedges" `Quick
            test_lone_read_still_hedges;
          Alcotest.test_case "lone task times out" `Quick test_lone_task_times_out;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "within txn" `Quick
            test_connection_affinity_within_txn;
          Alcotest.test_case "multi-shard sees own writes" `Quick
            test_multi_shard_select_inside_txn_sees_own_writes;
        ] );
      ( "sim",
        [
          Alcotest.test_case "client bound" `Quick test_closed_throughput_client_bound;
          Alcotest.test_case "resource bound" `Quick
            test_closed_throughput_resource_bound;
          Alcotest.test_case "solo elapsed" `Quick test_solo_elapsed_overlap;
          Alcotest.test_case "demand weights" `Quick test_demand_of_uses_weights;
        ] );
      ( "capabilities",
        [ Alcotest.test_case "table 2 cells" `Quick test_capability_matrix_matches_paper ] );
    ]
