(* Integration tests for the Citus layer: metadata, planners, distributed
   execution, 2PC, deadlock detection, COPY, INSERT..SELECT, DDL, MX. *)

let make ?(workers = 2) ?(shard_count = 8) () =
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

let check_int s msg expected sql = Alcotest.(check int) msg expected (one_int s sql)

(* What [node] itself stores: row counts and index names of one of its
   tables, read on the node, not through the coordinator. *)
let rows_on cluster node ?(where = "") table =
  let n = Cluster.Topology.find_node cluster node in
  one_int
    (Engine.Instance.connect n.Cluster.Topology.instance)
    (Printf.sprintf "SELECT count(*) FROM %s%s" table where)

let index_names cluster node table =
  let n = Cluster.Topology.find_node cluster node in
  match
    Engine.Catalog.find_table_opt
      (Engine.Instance.catalog n.Cluster.Topology.instance)
      table
  with
  | Some tbl ->
    List.sort compare
      (List.map
         (fun (i : Engine.Catalog.index) -> i.Engine.Catalog.idx_name)
         tbl.Engine.Catalog.indexes)
  | None -> Alcotest.fail (Printf.sprintf "%s missing on %s" table node)

let setup_items s =
  ignore (exec s "CREATE TABLE items (key bigint PRIMARY KEY, val text, qty bigint)");
  ignore (exec s "SELECT create_distributed_table('items', 'key')")

let load_items ?(n = 40) s =
  ignore (exec s "BEGIN");
  for i = 1 to n do
    ignore
      (exec s
         (Printf.sprintf "INSERT INTO items (key, val, qty) VALUES (%d, 'v%d', %d)"
            i i (i mod 5)))
  done;
  ignore (exec s "COMMIT")

(* --- WAL --- *)

(* A read-only statement is a transaction on the coordinator and on each
   worker it touches, and none of them writes: no node may log anything
   for it. (Xids are still issued; a fresh cluster is far from the first
   1,024-xid floor.) *)
let test_reads_append_no_wal () =
  let cluster, _, s = make ~workers:3 () in
  setup_items s;
  load_items s;
  Citus.Session.prepare s ~name:"getq" "SELECT qty FROM items WHERE key = $1";
  let wal_size () =
    List.fold_left
      (fun acc (n : Cluster.Topology.node) ->
        acc
        + Txn.Wal.size
            (Txn.Manager.wal (Engine.Instance.txn_manager n.Cluster.Topology.instance)))
      0
      (Cluster.Topology.all_nodes cluster)
  in
  let before = wal_size () in
  for k = 1 to 40 do
    check_int s "ad-hoc router read" (k mod 5)
      (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k);
    (match (Citus.Session.execute s "getq" [ Datum.Int k ]).Engine.Instance.rows with
     | [ [| Datum.Int q |] ] -> Alcotest.(check int) "prepared read" (k mod 5) q
     | _ -> Alcotest.fail "prepared read: expected one row")
  done;
  check_int s "multi-shard merge" 40 "SELECT count(*) FROM items";
  Alcotest.(check int) "grouped merge" 5
    (List.length
       (exec s "SELECT qty, count(*) FROM items GROUP BY qty ORDER BY qty")
         .Engine.Instance.rows);
  Alcotest.(check int) "WAL records on all nodes" before (wal_size ())

(* --- metadata --- *)

let test_metadata_shards () =
  let _, citus, s = make () in
  setup_items s;
  let shards = Citus.Metadata.shards_of citus.Citus.Api.metadata "items" in
  Alcotest.(check int) "8 shards" 8 (List.length shards);
  (* ranges tile the int32 space *)
  let sorted =
    List.sort
      (fun (a : Citus.Metadata.shard) b -> Int32.compare a.min_hash b.min_hash)
      shards
  in
  let first = List.hd sorted and last = List.nth sorted 7 in
  Alcotest.(check int32) "starts at min" Int32.min_int first.Citus.Metadata.min_hash;
  Alcotest.(check int32) "ends at max" Int32.max_int last.Citus.Metadata.max_hash;
  (* round-robin over both workers *)
  let nodes =
    List.map
      (fun (sh : Citus.Metadata.shard) ->
        Citus.Metadata.placement citus.Citus.Api.metadata sh.shard_id)
      shards
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string)) "both workers used" [ "worker1"; "worker2" ] nodes

let test_colocation () =
  let _, citus, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE orders (key bigint, item bigint, n bigint)");
  ignore (exec s "SELECT create_distributed_table('orders', 'key', 'items')");
  Alcotest.(check bool) "colocated" true
    (Citus.Metadata.colocated citus.Citus.Api.metadata [ "items"; "orders" ]);
  (* aligned placements *)
  let meta = citus.Citus.Api.metadata in
  List.iter2
    (fun (a : Citus.Metadata.shard) (b : Citus.Metadata.shard) ->
      Alcotest.(check string) "same node"
        (Citus.Metadata.placement meta a.shard_id)
        (Citus.Metadata.placement meta b.shard_id);
      Alcotest.(check int32) "same range" a.min_hash b.min_hash)
    (Citus.Metadata.shards_of meta "items")
    (Citus.Metadata.shards_of meta "orders")

let test_shard_for_value_deterministic () =
  let _, citus, s = make () in
  setup_items s;
  let meta = citus.Citus.Api.metadata in
  let s1 = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 42) in
  let s2 = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 42) in
  Alcotest.(check int) "stable" s1.Citus.Metadata.shard_id s2.Citus.Metadata.shard_id

(* --- routing + CRUD --- *)

let test_distributed_crud () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  check_int s "count across shards" 40 "SELECT count(*) FROM items";
  (match (exec s "SELECT val FROM items WHERE key = 7").Engine.Instance.rows with
   | [ [| Datum.Text "v7" |] ] -> ()
   | _ -> Alcotest.fail "routed select failed");
  ignore (exec s "UPDATE items SET qty = 99 WHERE key = 7");
  check_int s "routed update" 99 "SELECT qty FROM items WHERE key = 7";
  ignore (exec s "DELETE FROM items WHERE key = 7");
  check_int s "routed delete" 0 "SELECT count(*) FROM items WHERE key = 7";
  check_int s "others untouched" 39 "SELECT count(*) FROM items"

let test_data_on_workers () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  let total_on_workers =
    List.fold_left
      (fun acc (node : Cluster.Topology.node) ->
        let ws = Engine.Instance.connect node.instance in
        let meta = citus.Citus.Api.metadata in
        List.fold_left
          (fun acc (sh : Citus.Metadata.shard) ->
            if
              String.equal
                (Citus.Metadata.placement meta sh.shard_id)
                node.Cluster.Topology.node_name
            then
              acc
              + one_int ws
                  (Printf.sprintf "SELECT count(*) FROM %s"
                     (Citus.Metadata.shard_name sh))
            else acc)
          acc
          (Citus.Metadata.shards_of meta "items"))
      0 (Cluster.Topology.data_nodes cluster)
  in
  Alcotest.(check int) "all rows on workers" 40 total_on_workers

let test_planner_tiers () =
  let _, citus, s = make () in
  setup_items s;
  let meta = citus.Citus.Api.metadata in
  let plan sql =
    let stmt = Sqlfront.Parser.parse_statement sql in
    let _plan, tier =
      Citus.Planner.plan meta ~local_name:"coordinator" stmt
    in
    Citus.Planner.tier_name tier
  in
  Alcotest.(check string) "fast path" "fast path"
    (plan "SELECT * FROM items WHERE key = 5");
  Alcotest.(check string) "fast path update" "fast path"
    (plan "UPDATE items SET qty = 1 WHERE key = 5");
  Alcotest.(check string) "pushdown" "logical pushdown"
    (plan "SELECT count(*) FROM items");
  Alcotest.(check string) "parallel dml" "parallel DML"
    (plan "DELETE FROM items WHERE qty = 3");
  ignore (exec s "CREATE TABLE dims (id bigint, name text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  Alcotest.(check string) "router join" "router"
    (plan
       "SELECT items.val, dims.name FROM items JOIN dims ON items.qty = dims.id \
        WHERE items.key = 3")

(* A quoted distribution value routes by the column's type: the row
   lands on the bigint key's shard whichever path inserts it, and typed
   and quoted lookups both find it. *)
let test_quoted_key_routes_by_column_type () =
  let cluster, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint, v text)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "INSERT INTO t (k, v) VALUES ('5', 'a')");
  ignore (exec s "INSERT INTO t (k, v) VALUES ('6', 'b'), ('7', 'c')");
  Citus.Session.prepare s ~name:"ins" "INSERT INTO t (k, v) VALUES ($1, $2)";
  ignore (Citus.Session.execute s "ins" [ Datum.Text "8"; Datum.Text "d" ]);
  check_int s "every row counted" 4 "SELECT count(*) FROM t";
  let meta = citus.Citus.Api.metadata in
  List.iter
    (fun k ->
      let shard = Citus.Metadata.shard_for_value meta ~table:"t" (Datum.Int k) in
      Alcotest.(check int)
        (Printf.sprintf "key %d stored on its bigint shard" k)
        1
        (rows_on cluster
           (Citus.Metadata.placement meta shard.Citus.Metadata.shard_id)
           ~where:(Printf.sprintf " WHERE k = %d" k)
           (Citus.Metadata.shard_name shard));
      check_int s "typed lookup" 1
        (Printf.sprintf "SELECT count(*) FROM t WHERE k = %d" k);
      check_int s "quoted lookup" 1
        (Printf.sprintf "SELECT count(*) FROM t WHERE k = '%d'" k))
    [ 5; 6; 7; 8 ]

let test_multi_row_insert_split () =
  let _, _, s = make () in
  setup_items s;
  let r =
    exec s
      "INSERT INTO items (key, val, qty) VALUES (100, 'a', 1), (200, 'b', 2), (300, 'c', 3)"
  in
  Alcotest.(check int) "3 inserted" 3 r.Engine.Instance.affected;
  check_int s "all visible" 3 "SELECT count(*) FROM items"

let test_insert_requires_dist_column () =
  let _, _, s = make () in
  setup_items s;
  match exec s "INSERT INTO items (val) VALUES ('x')" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "insert without dist column should fail"

(* --- pushdown --- *)

let test_pushdown_aggregates () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  check_int s "sum" (List.init 40 (fun i -> (i + 1) mod 5) |> List.fold_left ( + ) 0)
    "SELECT sum(qty) FROM items";
  check_int s "min" 1 "SELECT min(key) FROM items";
  check_int s "max" 40 "SELECT max(key) FROM items";
  (match (exec s "SELECT avg(qty) FROM items").Engine.Instance.rows with
   | [ [| Datum.Float f |] ] -> Alcotest.(check (float 0.001)) "avg" 2.0 f
   | _ -> Alcotest.fail "avg failed")

(* A multi-shard SELECT reaches each worker as one text per shard; from
   its third sighting the worker serves it from its statement-cache
   template and runs the template's kept plan. *)
let test_pushdown_runs_kept_plans () =
  let cluster, _, s = make ~shard_count:4 () in
  setup_items s;
  load_items s;
  let kept_runs () =
    List.map
      (fun (w : Cluster.Topology.node) ->
        (Engine.Instance.plan_stats w.Cluster.Topology.instance).Engine.Executor.runs)
      cluster.Cluster.Topology.workers
  in
  let before = kept_runs () in
  for _ = 1 to 5 do
    check_int s "sum" 80 "SELECT sum(qty) FROM items"
  done;
  (* two shards a worker, each text seen, admitted, then hit three times *)
  Alcotest.(check (list int)) "kept runs on each worker" [ 6; 6 ]
    (List.map2 ( - ) (kept_runs ()) before)

(* A read changes no catalog: a multi-shard SELECT merges its rows on
   the coordinator without a table there, so the coordinator's kept plans
   are neither invalidated nor rebuilt. *)
let test_merge_keeps_coordinator_plans () =
  let cluster, _, s = make () in
  setup_items s;
  load_items s;
  ignore (exec s "CREATE TABLE local_t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "INSERT INTO local_t VALUES (1, 10), (2, 20)");
  ignore (exec s "PREPARE p AS SELECT v FROM local_t WHERE k = $1");
  check_int s "first execute" 10 "EXECUTE p(1)";
  check_int s "second execute" 20 "EXECUTE p(2)";
  let coord = cluster.Cluster.Topology.coordinator.Cluster.Topology.instance in
  let stats () =
    let st = Engine.Instance.plan_stats coord in
    (Engine.Catalog.version (Engine.Instance.catalog coord),
     st.Engine.Executor.builds, st.Engine.Executor.invalidations)
  in
  let version, builds, invalidations = stats () in
  Alcotest.(check int) "grouped multi-shard select" 5
    (List.length (exec s "SELECT qty, count(*) FROM items GROUP BY qty").Engine.Instance.rows);
  check_int s "third execute" 10 "EXECUTE p(1)";
  let version', builds', invalidations' = stats () in
  Alcotest.(check int) "catalog version" version version';
  Alcotest.(check int) "no invalidation" invalidations invalidations';
  Alcotest.(check int) "no build" builds builds'

let test_pushdown_group_by () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  let rows =
    (exec s
       "SELECT qty, count(*) FROM items GROUP BY qty ORDER BY qty ASC")
      .Engine.Instance.rows
  in
  Alcotest.(check int) "5 groups" 5 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [| Datum.Int _; Datum.Int 8 |] -> ()
      | _ -> Alcotest.fail "each qty bucket has 8 rows")
    rows

let test_pushdown_order_limit () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  match
    (exec s "SELECT key FROM items ORDER BY key DESC LIMIT 3").Engine.Instance.rows
  with
  | [ [| Datum.Int 40 |]; [| Datum.Int 39 |]; [| Datum.Int 38 |] ] -> ()
  | _ -> Alcotest.fail "order/limit merge failed"

let test_pushdown_colocated_join () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE orders (key bigint, amount bigint)");
  ignore (exec s "SELECT create_distributed_table('orders', 'key', 'items')");
  load_items s;
  ignore (exec s "BEGIN");
  for i = 1 to 40 do
    ignore
      (exec s (Printf.sprintf "INSERT INTO orders (key, amount) VALUES (%d, %d)" i (i * 10)))
  done;
  ignore (exec s "COMMIT");
  check_int s "colocated join" 40
    "SELECT count(*) FROM items JOIN orders ON items.key = orders.key";
  check_int s "join with filter + agg" 360
    "SELECT sum(orders.amount) FROM items JOIN orders ON items.key = orders.key WHERE items.key <= 8"

let test_pushdown_reference_join () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE dims (id bigint, label text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (exec s "INSERT INTO dims VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, 'three'), (4, 'four')");
  load_items s;
  check_int s "dist x ref join" 40
    "SELECT count(*) FROM items JOIN dims ON items.qty = dims.id"

let test_non_colocated_join_rejected () =
  let _, citus, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE others (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('others', 'k')");
  (* the pushdown planner itself must reject the non-co-located join ... *)
  let meta = citus.Citus.Api.metadata in
  let sel =
    Sqlfront.Parser.parse_select
      "SELECT count(*) FROM items JOIN others ON items.qty = others.v"
  in
  (match Citus.Planner.plan_pushdown_select meta sel with
   | exception Citus.Planner.Unsupported _ -> ()
   | _ -> Alcotest.fail "pushdown should reject the non-co-located join");
  (* ... but the full planner chain falls through to the join-order
     planner, which broadcasts the small side and answers it *)
  check_int s "join-order planner answers it" 0
    "SELECT count(*) FROM items JOIN others ON items.qty = others.v"

let test_venicedb_nested_subquery_pushdown () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE reports (deviceid bigint, metric bigint, build text)");
  ignore (exec s "SELECT create_distributed_table('reports', 'deviceid')");
  ignore (exec s "BEGIN");
  for d = 1 to 20 do
    for r = 1 to 3 do
      ignore
        (exec s
           (Printf.sprintf
              "INSERT INTO reports (deviceid, metric, build) VALUES (%d, %d, 'b1')"
              d (d * r)))
    done
  done;
  ignore (exec s "COMMIT");
  (* avg of per-device averages: the subquery groups by the distribution
     column, so it pushes down whole (§5) *)
  match
    (exec s
       "SELECT avg(device_avg) FROM (SELECT deviceid, avg(metric) AS device_avg \
        FROM reports WHERE build = 'b1' GROUP BY deviceid) AS subq")
      .Engine.Instance.rows
  with
  | [ [| Datum.Float f |] ] -> Alcotest.(check (float 0.001)) "avg of avgs" 21.0 f
  | _ -> Alcotest.fail "venicedb query failed"

let test_subquery_group_without_dist_rejected () =
  let _, _, s = make () in
  setup_items s;
  match
    exec s
      "SELECT avg(c) FROM (SELECT qty, count(*) AS c FROM items GROUP BY qty) AS x"
  with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "subquery grouped off the dist column should be rejected"

let test_count_distinct_with_dist_group () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  (* grouped by dist col: allowed *)
  let rows =
    (exec s
       "SELECT key, count(DISTINCT qty) FROM items GROUP BY key ORDER BY key LIMIT 5")
      .Engine.Instance.rows
  in
  Alcotest.(check int) "5 rows" 5 (List.length rows);
  (* without dist col grouping: rejected *)
  match exec s "SELECT count(DISTINCT qty) FROM items" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "global count distinct should be rejected"

let test_shard_pruning_in_list () =
  let _, citus, s = make () in
  setup_items s;
  load_items s;
  let meta = citus.Citus.Api.metadata in
  let plan sql =
    fst
      (Citus.Planner.plan meta ~local_name:"coordinator"
         (Sqlfront.Parser.parse_statement sql))
  in
  (* IN list restricts the task fan-out to the owning shards *)
  let tasks sql = List.length (Citus.Plan.tasks_of (plan sql)) in
  Alcotest.(check bool) "IN list pruned" true
    (tasks "SELECT count(*) FROM items WHERE key IN (1, 2, 3)" <= 3);
  Alcotest.(check int) "unconstrained hits all shards" 8
    (tasks "SELECT count(*) FROM items");
  Alcotest.(check bool) "pruned DML" true
    (tasks "UPDATE items SET qty = 0 WHERE key IN (5, 6)" <= 2);
  (* correctness preserved *)
  check_int s "IN result" 3 "SELECT count(*) FROM items WHERE key IN (1, 2, 3)";
  ignore (exec s "UPDATE items SET qty = 0 WHERE key IN (5, 6)");
  check_int s "DML applied" 2 "SELECT count(*) FROM items WHERE qty = 0 AND key IN (5, 6)"

let test_local_tables_coexist () =
  let _, _, s = make () in
  setup_items s;
  (* plain local tables keep working untouched next to citus tables *)
  ignore (exec s "CREATE TABLE scratch (x bigint)");
  ignore (exec s "INSERT INTO scratch VALUES (1), (2)");
  check_int s "local query" 2 "SELECT count(*) FROM scratch";
  (* joining local with distributed is not supported: a clear error *)
  match exec s "SELECT count(*) FROM scratch JOIN items ON scratch.x = items.key" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ ->
    (* acceptable alternative: it errors deeper; what must not happen is a
       wrong answer — fail if it returned rows *)
    Alcotest.fail "local x distributed join should error"

let test_cte_over_distributed_table () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  (* the CTE groups by the distribution column, so the whole desugared
     query pushes down *)
  check_int s "cte pushdown" 40
    "WITH per_key AS (SELECT key, count(*) AS c FROM items GROUP BY key)      SELECT count(*) FROM per_key";
  check_int s "cte with filter" 8
    "WITH busy AS (SELECT key FROM items WHERE qty = 2) SELECT count(*) FROM busy"

let test_hybrid_local_reference_join () =
  (* the "hybrid data model" of §7: small local tables joined with
     reference tables work on the coordinator *)
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE dims (id bigint, label text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (exec s "INSERT INTO dims VALUES (1, 'one'), (2, 'two')");
  ignore (exec s "CREATE TABLE local_notes (dim bigint, note text)");
  ignore (exec s "INSERT INTO local_notes VALUES (1, 'a'), (1, 'b'), (2, 'c')");
  check_int s "local x reference join" 3
    "SELECT count(*) FROM local_notes JOIN dims ON local_notes.dim = dims.id"

(* --- reference tables --- *)

let test_reference_table_replication () =
  let cluster, citus, s = make () in
  ignore (exec s "CREATE TABLE dims (id bigint, label text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (exec s "INSERT INTO dims VALUES (1, 'one')");
  (* each node (coordinator + workers) has the row in its replica shard *)
  let meta = citus.Citus.Api.metadata in
  let shard = List.hd (Citus.Metadata.shards_of meta "dims") in
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let ws = Engine.Instance.connect node.instance in
      Alcotest.(check int)
        (Printf.sprintf "replica on %s" node.node_name)
        1
        (one_int ws
           (Printf.sprintf "SELECT count(*) FROM %s"
              (Citus.Metadata.shard_name shard))))
    (Cluster.Topology.all_nodes cluster);
  (* update goes everywhere *)
  ignore (exec s "UPDATE dims SET label = 'uno' WHERE id = 1");
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let ws = Engine.Instance.connect node.instance in
      match
        (Engine.Instance.exec ws
           (Printf.sprintf "SELECT label FROM %s"
              (Citus.Metadata.shard_name shard)))
          .Engine.Instance.rows
      with
      | [ [| Datum.Text "uno" |] ] -> ()
      | _ -> Alcotest.fail "replica not updated")
    (Cluster.Topology.all_nodes cluster)

let test_reference_read_is_local () =
  let cluster, _, s = make () in
  ignore (exec s "CREATE TABLE dims (id bigint, label text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (exec s "INSERT INTO dims VALUES (1, 'one')");
  let before = Cluster.Topology.net_snapshot cluster in
  check_int s "read" 1 "SELECT count(*) FROM dims";
  let after = Cluster.Topology.net_snapshot cluster in
  let d = Cluster.Topology.net_diff ~after ~before in
  (* served by the coordinator's own replica: only the local "connection"
     round trip, no worker traffic; allow <= 2 for the local hop *)
  Alcotest.(check bool) "few round trips" true
    (d.Cluster.Topology.round_trips <= 2)

let test_columnar_distributed_table () =
  let cluster, citus, s = make () in
  ignore (exec s "CREATE TABLE facts (k bigint, v bigint) USING COLUMNAR");
  ignore (exec s "SELECT create_distributed_table('facts', 'k')");
  (* the shards must be columnar on the workers *)
  let meta = citus.Citus.Api.metadata in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let node =
        Cluster.Topology.find_node cluster
          (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id)
      in
      match
        (Engine.Catalog.find_table
           (Engine.Instance.catalog node.Cluster.Topology.instance)
           (Citus.Metadata.shard_name sh))
          .Engine.Catalog.store
      with
      | Engine.Catalog.Columnar_store _ -> ()
      | Engine.Catalog.Heap_store _ -> Alcotest.fail "shard should be columnar")
    (Citus.Metadata.shards_of meta "facts");
  ignore (exec s "BEGIN");
  for i = 1 to 50 do
    ignore (exec s (Printf.sprintf "INSERT INTO facts (k, v) VALUES (%d, %d)" i i))
  done;
  ignore (exec s "COMMIT");
  check_int s "pushdown over columnar shards" 1275 "SELECT sum(v) FROM facts";
  (* append-only: distributed UPDATE must surface the engine error *)
  match exec s "UPDATE facts SET v = 0 WHERE k = 1" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "columnar update should fail"

let test_reference_write_uses_2pc () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE dims (id bigint, v bigint)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (exec s "INSERT INTO dims VALUES (1, 0)");
  (* a reference write touches every replica: commit is a multi-node 2PC *)
  let st = Citus.Api.coordinator_state citus in
  ignore st;
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE dims SET v = 42 WHERE id = 1");
  (* while open: replicas hold uncommitted versions *)
  let s2 = Citus.Api.connect citus in
  check_int s2 "uncommitted invisible" 0 "SELECT count(*) FROM dims WHERE v = 42";
  ignore (exec s "COMMIT");
  check_int s2 "visible after 2pc" 1 "SELECT count(*) FROM dims WHERE v = 42";
  (* and an abort leaves every replica unchanged *)
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE dims SET v = 99 WHERE id = 1");
  ignore (exec s "ROLLBACK");
  check_int s2 "abort applied everywhere" 0
    "SELECT count(*) FROM dims WHERE v = 99"

let test_distributed_vacuum () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  ignore (exec s "DELETE FROM items WHERE key <= 30");
  let r = exec s "VACUUM items" in
  Alcotest.(check int) "reclaimed across shards" 30 r.Engine.Instance.affected;
  (* dead tuples gone on the workers *)
  let meta = citus.Citus.Api.metadata in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let node =
        Cluster.Topology.find_node cluster
          (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id)
      in
      match
        (Engine.Catalog.find_table
           (Engine.Instance.catalog node.Cluster.Topology.instance)
           (Citus.Metadata.shard_name sh))
          .Engine.Catalog.store
      with
      | Engine.Catalog.Heap_store h ->
        Alcotest.(check int) "no dead tuples" 0 (Storage.Heap.dead_estimate h)
      | Engine.Catalog.Columnar_store _ -> ())
    (Citus.Metadata.shards_of meta "items");
  check_int s "survivors" 10 "SELECT count(*) FROM items"

(* --- transactions --- *)

let test_single_node_txn_commit_abort () =
  let _, _, s = make () in
  setup_items s;
  load_items s;
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE items SET qty = 1000 WHERE key = 3");
  ignore (exec s "ROLLBACK");
  Alcotest.(check bool) "rolled back" true
    (one_int s "SELECT qty FROM items WHERE key = 3" <> 1000);
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE items SET qty = 1000 WHERE key = 3");
  ignore (exec s "COMMIT");
  check_int s "committed" 1000 "SELECT qty FROM items WHERE key = 3"

(* find two keys on different nodes *)
let two_keys_on_different_nodes citus table =
  let meta = citus.Citus.Api.metadata in
  let node_of k =
    Citus.Metadata.placement meta
      (Citus.Metadata.shard_for_value meta ~table (Datum.Int k))
        .Citus.Metadata.shard_id
  in
  let k1 = 1 in
  let rec find k =
    if k > 1000 then Alcotest.fail "no second node?"
    else if node_of k <> node_of k1 then k
    else find (k + 1)
  in
  (k1, find 2)

let test_2pc_commit_across_nodes () =
  let _, citus, s = make () in
  setup_items s;
  load_items s;
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 777 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 777 WHERE key = %d" k2));
  ignore (exec s "COMMIT");
  check_int s "k1" 777 (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1);
  check_int s "k2" 777 (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2);
  (* commit records are garbage-collected by the maintenance daemon *)
  Citus.Api.maintenance citus;
  Alcotest.(check int) "no leftover records" 0
    (Citus.Twopc.commit_record_count (Citus.Api.coordinator_state citus))

let test_2pc_abort_across_nodes () =
  let _, citus, s = make () in
  setup_items s;
  load_items s;
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 888 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 888 WHERE key = %d" k2));
  ignore (exec s "ROLLBACK");
  Alcotest.(check bool) "k1 unchanged" true
    (one_int s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1) <> 888);
  Alcotest.(check bool) "k2 unchanged" true
    (one_int s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2) <> 888)

let test_2pc_recovery_after_partition () =
  (* break the window between PREPARE and COMMIT PREPARED on one node:
     the coordinator commits (records durable), the worker keeps a
     prepared transaction, and the recovery daemon finishes the job *)
  let _, citus, s = make () in
  setup_items s;
  load_items s;
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  let meta = citus.Citus.Api.metadata in
  let node_of k =
    Citus.Metadata.placement meta
      (Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int k))
        .Citus.Metadata.shard_id
  in
  let lost_node = node_of k2 in
  Citus.State.inject_failure st ~node:lost_node ~matching:"COMMIT PREPARED";
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 555 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 555 WHERE key = %d" k2));
  (* COMMIT succeeds from the client's point of view: prepare worked and
     the commit record is durable; only the final COMMIT PREPARED to one
     node is lost *)
  ignore (exec s "COMMIT");
  check_int s "k1 committed" 555
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1);
  (* k2's worker still holds the prepared transaction: the row is locked
     and the update invisible *)
  Alcotest.(check bool) "k2 still pending" true
    (one_int s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2) <> 555);
  let lost_mgr =
    Engine.Instance.txn_manager
      (Cluster.Topology.find_node citus.Citus.Api.cluster lost_node)
        .Cluster.Topology.instance
  in
  Alcotest.(check int) "one prepared txn pending" 1
    (List.length (Txn.Manager.prepared_transactions lost_mgr));
  Alcotest.(check bool) "commit record retained" true
    (Citus.Twopc.commit_record_count st > 0);
  (* the failure heals; the recovery daemon compares prepared transactions
     against the commit records and commits the orphan (§3.7.2) *)
  Citus.State.clear_failures st;
  let committed, rolled_back = Citus.Twopc.recover st in
  Alcotest.(check int) "recovery committed it" 1 committed;
  Alcotest.(check int) "nothing rolled back" 0 rolled_back;
  check_int s "k2 now committed" 555
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2);
  Citus.Api.maintenance citus;
  Alcotest.(check int) "records garbage-collected" 0
    (Citus.Twopc.commit_record_count st)

let test_2pc_recovery_rolls_back_orphans () =
  (* a prepared transaction whose coordinator aborted (no commit record)
     must be rolled back by recovery *)
  let _, citus, s = make () in
  setup_items s;
  load_items s;
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  let meta = citus.Citus.Api.metadata in
  let node_of k =
    Citus.Metadata.placement meta
      (Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int k))
        .Citus.Metadata.shard_id
  in
  (* connections are visited newest-first at commit, so k2's node prepares
     first; failing k1's PREPARE leaves k2 prepared, and its ROLLBACK
     PREPARED cleanup is lost too *)
  Citus.State.inject_failure st ~node:(node_of k1) ~matching:"PREPARE TRANSACTION";
  Citus.State.inject_failure st ~node:(node_of k2) ~matching:"ROLLBACK PREPARED";
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 666 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 666 WHERE key = %d" k2));
  (match exec s "COMMIT" with
   | exception _ -> ()
   | _ -> ());
  ignore (exec s "ROLLBACK");
  Citus.State.clear_failures st;
  let mgr2 =
    Engine.Instance.txn_manager
      (Cluster.Topology.find_node citus.Citus.Api.cluster (node_of k2))
        .Cluster.Topology.instance
  in
  Alcotest.(check int) "orphaned prepared txn" 1
    (List.length (Txn.Manager.prepared_transactions mgr2));
  let committed, rolled_back = Citus.Twopc.recover st in
  Alcotest.(check int) "nothing committed" 0 committed;
  Alcotest.(check int) "orphan rolled back" 1 rolled_back;
  Alcotest.(check bool) "k2 unchanged" true
    (one_int s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2) <> 666)

let test_2pc_prepare_failure_aborts_everywhere () =
  let _, citus, s = make () in
  setup_items s;
  load_items s;
  let st = Citus.Api.coordinator_state citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  let meta = citus.Citus.Api.metadata in
  let node_of k =
    Citus.Metadata.placement meta
      (Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int k))
        .Citus.Metadata.shard_id
  in
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 111 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 111 WHERE key = %d" k2));
  (* sever one participant before commit: PREPARE on it fails, the whole
     distributed transaction must abort *)
  Citus.State.partition_node st (node_of k2);
  (match exec s "COMMIT" with
   | exception _ -> ()
   | _r ->
     (* commit errored internally; session state must be clean *)
     ());
  Citus.State.heal_node st (node_of k2);
  ignore (exec s "ROLLBACK");
  Alcotest.(check bool) "k1 not committed" true
    (one_int s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1) <> 111);
  Alcotest.(check bool) "k2 not committed" true
    (one_int s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2) <> 111);
  (* recovery cleans any leftover prepared transactions *)
  Citus.Api.maintenance citus;
  Alcotest.(check int) "no stale prepared" 0
    (List.length
       (Txn.Manager.prepared_transactions
          (Engine.Instance.txn_manager
             (Cluster.Topology.find_node citus.Citus.Api.cluster (node_of k1))
               .Cluster.Topology.instance)))

let test_distributed_deadlock_detection () =
  let _, citus, s1 = make () in
  setup_items s1;
  load_items s1;
  let s2 = Citus.Api.connect citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  ignore (exec s1 "BEGIN");
  ignore (exec s2 "BEGIN");
  ignore (exec s1 (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k1));
  ignore (exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k2));
  (* now cross: each blocks on the other, on different nodes, so neither
     node sees a local cycle *)
  (match exec s1 (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k2) with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "s1 should block");
  (match exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k1) with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "s2 should block");
  (* no local deadlock on any single node *)
  List.iter
    (fun (node : Cluster.Topology.node) ->
      Alcotest.(check bool) "no local cycle" true
        (Txn.Lock.detect_deadlock
           (Txn.Manager.locks (Engine.Instance.txn_manager node.instance))
         = None))
    (Cluster.Topology.all_nodes citus.Citus.Api.cluster);
  (* the distributed detector finds it and cancels the youngest *)
  let st = Citus.Api.coordinator_state citus in
  (match Citus.Deadlock.detect_and_cancel st with
   | Some _victim -> ()
   | None -> Alcotest.fail "distributed deadlock not detected");
  (* the survivor can finish after retrying *)
  ignore (exec s1 (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k2));
  ignore (exec s1 "COMMIT");
  (* the victim session observes its abort *)
  match exec s2 "SELECT 1" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "victim should observe abort"

let test_exec_with_retries_breaks_deadlock () =
  (* two sessions in a distributed deadlock; the survivor's retry loop
     succeeds because each retry runs the maintenance daemon, which cancels
     the youngest transaction *)
  let _, citus, s1 = make () in
  setup_items s1;
  load_items s1;
  let s2 = Citus.Api.connect citus in
  let k1, k2 = two_keys_on_different_nodes citus "items" in
  ignore (exec s1 "BEGIN");
  ignore (exec s2 "BEGIN");
  ignore (exec s1 (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k1));
  ignore (exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k2));
  (match exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k1) with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "s2 should block");
  (* s1 completes the cycle but retries; maintenance cancels s2 (younger) *)
  ignore
    (Citus.Api.exec_with_retries citus s1
       (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k2));
  ignore (exec s1 "COMMIT");
  check_int s1 "survivor committed" 1
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2);
  match exec s2 "SELECT 1" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "victim should observe abort"

(* --- COPY --- *)

let test_copy_routing () =
  let _, _, s = make () in
  setup_items s;
  let lines = List.init 30 (fun i -> Printf.sprintf "%d\tc%d\t%d" (i + 1) i (i mod 3)) in
  let n = Engine.Instance.copy_in s ~table:"items" ~columns:None lines in
  Alcotest.(check int) "copied" 30 n;
  check_int s "all rows" 30 "SELECT count(*) FROM items";
  check_int s "routed correctly" 1 "SELECT count(*) FROM items WHERE key = 17"

let test_copy_reference () =
  let cluster, citus, s = make () in
  ignore (exec s "CREATE TABLE dims (id bigint, label text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  let n = Engine.Instance.copy_in s ~table:"dims" ~columns:None [ "1\ta"; "2\tb" ] in
  Alcotest.(check int) "copied" 2 n;
  let meta = citus.Citus.Api.metadata in
  let shard = List.hd (Citus.Metadata.shards_of meta "dims") in
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let ws = Engine.Instance.connect node.instance in
      Alcotest.(check int) "replica rows" 2
        (one_int ws
           (Printf.sprintf "SELECT count(*) FROM %s" (Citus.Metadata.shard_name shard))))
    (Cluster.Topology.all_nodes cluster)

(* --- INSERT..SELECT --- *)

let test_insert_select_colocated () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE rollup (key bigint, total bigint)");
  ignore (exec s "SELECT create_distributed_table('rollup', 'key', 'items')");
  load_items s;
  let r =
    exec s
      "INSERT INTO rollup (key, total) SELECT key, sum(qty) FROM items GROUP BY key"
  in
  Alcotest.(check int) "40 rollup rows" 40 r.Engine.Instance.affected;
  check_int s "rollup total" 40 "SELECT count(*) FROM rollup"

let test_insert_select_repartition () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE by_qty (qty bigint, key bigint)");
  ignore (exec s "SELECT create_distributed_table('by_qty', 'qty')");
  load_items s;
  (* source distributed by key, dest by qty: not co-located, so the rows
     are pulled through the coordinator *)
  let r = exec s "INSERT INTO by_qty (qty, key) SELECT qty, key FROM items" in
  Alcotest.(check int) "rows moved" 40 r.Engine.Instance.affected;
  check_int s "count" 40 "SELECT count(*) FROM by_qty";
  check_int s "bucket" 8 "SELECT count(*) FROM by_qty WHERE qty = 2"

let test_insert_select_pull () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE summary (qty bigint, cnt bigint)");
  ignore (exec s "SELECT create_distributed_table('summary', 'qty')");
  load_items s;
  (* group by a non-distribution column: needs the coordinator merge *)
  let r =
    exec s "INSERT INTO summary (qty, cnt) SELECT qty, count(*) FROM items GROUP BY qty"
  in
  Alcotest.(check int) "5 buckets" 5 r.Engine.Instance.affected;
  check_int s "bucket count" 8 "SELECT cnt FROM summary WHERE qty = 2"

let test_conversion_errors () =
  let _, citus, s = make () in
  setup_items s;
  (* a NULL distribution value has no shard: the conversion fails before
     anything is registered *)
  ignore (exec s "CREATE TABLE nk (k bigint, v text)");
  ignore (exec s "INSERT INTO nk VALUES (NULL, 'a')");
  (match exec s "SELECT create_distributed_table('nk', 'k')" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "a NULL distribution value should fail the conversion");
  Alcotest.(check bool) "nk not registered" false
    (Citus.Metadata.is_citus_table citus.Citus.Api.metadata "nk");
  (* converting twice is an error *)
  (match exec s "SELECT create_distributed_table('items', 'key')" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "double conversion should fail");
  (* and so is referencing an already-distributed table *)
  (match exec s "SELECT create_reference_table('items')" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "reference of distributed should fail");
  (* converting a missing table *)
  match exec s "SELECT create_distributed_table('ghost', 'k')" with
  | exception Engine.Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "missing table should fail"

let test_copy_in_transaction_aborts_cleanly () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "BEGIN");
  let n =
    Engine.Instance.copy_in s ~table:"items" ~columns:None
      [ "501	a	1"; "502	b	2" ]
  in
  Alcotest.(check int) "copied in txn" 2 n;
  check_int s "visible to self" 2 "SELECT count(*) FROM items WHERE key > 500";
  ignore (exec s "ROLLBACK");
  check_int s "rolled back across shards" 0
    "SELECT count(*) FROM items WHERE key > 500"

let test_insert_select_into_reference () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items ~n:10 s;
  ignore (exec s "CREATE TABLE qty_dims (qty bigint, label text)");
  ignore (exec s "SELECT create_reference_table('qty_dims')");
  (* pull the distinct qty values out of the distributed table into the
     reference table: every replica must receive them *)
  let r =
    exec s
      "INSERT INTO qty_dims (qty, label) SELECT qty, 'bucket' FROM items GROUP BY qty"
  in
  Alcotest.(check bool) "rows inserted" true (r.Engine.Instance.affected > 0);
  let meta = citus.Citus.Api.metadata in
  let shard = List.hd (Citus.Metadata.shards_of meta "qty_dims") in
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let ws = Engine.Instance.connect node.instance in
      Alcotest.(check int) "replica rows" r.Engine.Instance.affected
        (one_int ws
           (Printf.sprintf "SELECT count(*) FROM %s"
              (Citus.Metadata.shard_name shard))))
    (Cluster.Topology.all_nodes cluster)

let test_exec_params_distributed () =
  let _, _, s = make () in
  setup_items s;
  load_items ~n:5 s;
  Citus.Session.prepare s ~name:"getv" "SELECT val FROM items WHERE key = $1";
  let r = Citus.Session.execute s "getv" [ Datum.Int 3 ] in
  (match r.Engine.Instance.rows with
   | [ [| Datum.Text "v3" |] ] -> ()
   | _ -> Alcotest.fail "param routing failed");
  Citus.Session.prepare s ~name:"skip" "SELECT val FROM items WHERE key = $2";
  match Citus.Session.execute s "skip" [ Datum.Int 3 ] with
  | exception Engine.Instance.Session_error m ->
    (* typed error naming the parameter, not a bare Invalid_argument *)
    Alcotest.(check string) "bind error"
      "no value for parameter $2 in prepared statement skip" m
  | _ -> Alcotest.fail "missing param should fail"

(* --- DDL propagation --- *)

let test_ddl_propagation () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  ignore (exec s "CREATE INDEX items_qty ON items USING BTREE (qty)");
  (* every shard on every worker has the index *)
  let meta = citus.Citus.Api.metadata in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let node =
        Cluster.Topology.find_node cluster (Citus.Metadata.placement meta sh.shard_id)
      in
      let catalog = Engine.Instance.catalog node.instance in
      let tbl = Engine.Catalog.find_table catalog (Citus.Metadata.shard_name sh) in
      Alcotest.(check bool) "shard index exists" true
        (List.exists
           (fun (i : Engine.Catalog.index) ->
             String.length i.idx_name >= 9
             && String.sub i.idx_name 0 9 = "items_qty")
           tbl.Engine.Catalog.indexes))
    (Citus.Metadata.shards_of meta "items");
  (* ALTER propagates *)
  ignore (exec s "ALTER TABLE items ADD COLUMN note text DEFAULT 'x'");
  check_int s "new column readable" 40 "SELECT count(*) FROM items WHERE note = 'x'";
  (* TRUNCATE propagates *)
  ignore (exec s "TRUNCATE items");
  check_int s "truncated" 0 "SELECT count(*) FROM items"

let test_drop_distributed_table () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  let meta = citus.Citus.Api.metadata in
  let shard_names =
    List.map
      (fun (sh : Citus.Metadata.shard) ->
        (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id,
         Citus.Metadata.shard_name sh))
      (Citus.Metadata.shards_of meta "items")
  in
  ignore (exec s "DROP TABLE items");
  Alcotest.(check bool) "metadata gone" false
    (Citus.Metadata.is_citus_table meta "items");
  (* physical shards removed from the workers *)
  List.iter
    (fun (node, shard) ->
      let cat =
        Engine.Instance.catalog
          (Cluster.Topology.find_node cluster node).Cluster.Topology.instance
      in
      Alcotest.(check bool) (shard ^ " dropped") true
        (Engine.Catalog.find_table_opt cat shard = None))
    shard_names;
  (* the name is reusable *)
  ignore (exec s "CREATE TABLE items (key bigint, v text)");
  ignore (exec s "SELECT create_distributed_table('items', 'key')");
  check_int s "fresh table" 0 "SELECT count(*) FROM items"

let test_convert_table_with_existing_rows () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE pre (k bigint PRIMARY KEY, v text)");
  for i = 1 to 25 do
    ignore (exec s (Printf.sprintf "INSERT INTO pre VALUES (%d, 'v%d')" i i))
  done;
  (* conversion must move the existing rows into the new shards *)
  ignore (exec s "SELECT create_distributed_table('pre', 'k')");
  check_int s "all rows moved" 25 "SELECT count(*) FROM pre";
  check_int s "routed lookup" 1 "SELECT count(*) FROM pre WHERE k = 13";
  (* the local table is gone: data lives in the shards, the schema in
     the catalog *)
  let inst = Engine.Instance.session_instance s in
  Alcotest.(check bool) "local table dropped" true
    (Engine.Catalog.find_table_opt (Engine.Instance.catalog inst) "pre" = None)

(* Converting non-empty tables at replication factor 2: every placement
   of every shard holds exactly its shard's rows and indexes, every
   reference replica holds every row, and the local copies are empty. *)
let test_convert_replicated_tables () =
  let cluster, citus, s = make ~workers:3 () in
  ignore (exec s "SELECT citus_set_replication_factor(2)");
  ignore (exec s "CREATE TABLE pre (k bigint PRIMARY KEY, v text)");
  ignore (exec s "CREATE INDEX pre_v ON pre USING BTREE (v)");
  ignore (exec s "CREATE TABLE dim (k bigint PRIMARY KEY, name text)");
  for i = 1 to 20 do
    ignore (exec s (Printf.sprintf "INSERT INTO pre VALUES (%d, 'v%d')" i i));
    ignore (exec s (Printf.sprintf "INSERT INTO dim VALUES (%d, 'n%d')" i i))
  done;
  ignore (exec s "SELECT create_distributed_table('pre', 'k')");
  ignore (exec s "SELECT create_reference_table('dim')");
  let meta = citus.Citus.Api.metadata in
  let total =
    List.fold_left
      (fun acc (sh : Citus.Metadata.shard) ->
        let name = Citus.Metadata.shard_name sh in
        let nodes = Citus.Metadata.placements meta sh.Citus.Metadata.shard_id in
        Alcotest.(check int) (name ^ " has two placements") 2 (List.length nodes);
        let counts = List.map (fun n -> rows_on cluster n name) nodes in
        List.iter
          (fun c -> Alcotest.(check int) (name ^ " replicas agree") (List.hd counts) c)
          counts;
        List.iter
          (fun n ->
            Alcotest.(check (list string))
              (name ^ " indexes on " ^ n)
              [ name ^ "_pkey"; Printf.sprintf "pre_v_%d" sh.Citus.Metadata.shard_id ]
              (index_names cluster n name))
          nodes;
        acc + List.hd counts)
      0
      (Citus.Metadata.shards_of meta "pre")
  in
  Alcotest.(check int) "every row in exactly one shard" 20 total;
  let dim = List.hd (Citus.Metadata.shards_of meta "dim") in
  let dim_nodes = Citus.Metadata.placements meta dim.Citus.Metadata.shard_id in
  Alcotest.(check int) "a reference replica per node" 4 (List.length dim_nodes);
  List.iter
    (fun n ->
      Alcotest.(check int) ("reference replica on " ^ n) 20
        (rows_on cluster n (Citus.Metadata.shard_name dim)))
    dim_nodes;
  let local = Engine.Instance.catalog (Engine.Instance.session_instance s) in
  List.iter
    (fun table ->
      Alcotest.(check bool) (table ^ " local table dropped") true
        (Engine.Catalog.find_table_opt local table = None))
    [ "pre"; "dim" ];
  check_int s "routed lookup" 1 "SELECT count(*) FROM pre WHERE k = 13";
  check_int s "reference join" 20
    "SELECT count(*) FROM pre JOIN dim ON pre.k = dim.k"

(* A node joining the cluster gets every reference table — rows and
   indexes — and serves reference joins for the shards moved onto it. *)
let test_add_node_copies_reference_tables () =
  let cluster = Cluster.Topology.create ~workers:3 () in
  let citus = Citus.Api.install ~shard_count:4 ~active_workers:2 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "CREATE TABLE dim (k bigint PRIMARY KEY, name text)");
  ignore (exec s "CREATE INDEX dim_name ON dim USING BTREE (name)");
  ignore (exec s "SELECT create_reference_table('dim')");
  ignore (exec s "CREATE TABLE facts (k bigint, d bigint)");
  ignore (exec s "SELECT create_distributed_table('facts', 'k')");
  for i = 1 to 10 do
    ignore (exec s (Printf.sprintf "INSERT INTO dim VALUES (%d, 'n%d')" i i));
    ignore (exec s (Printf.sprintf "INSERT INTO facts VALUES (%d, %d)" i i))
  done;
  ignore (exec s "SELECT citus_add_node('worker3')");
  let meta = citus.Citus.Api.metadata in
  let dim = List.hd (Citus.Metadata.shards_of meta "dim") in
  let name = Citus.Metadata.shard_name dim in
  Alcotest.(check bool) "worker3 holds a reference placement" true
    (List.mem "worker3" (Citus.Metadata.placements meta dim.Citus.Metadata.shard_id));
  Alcotest.(check int) "rows copied" 10 (rows_on cluster "worker3" name);
  Alcotest.(check (list string)) "indexes copied"
    (index_names cluster "worker1" name)
    (index_names cluster "worker3" name);
  ignore (exec s "INSERT INTO dim VALUES (11, 'n11')");
  Alcotest.(check int) "later writes reach the new replica" 11
    (rows_on cluster "worker3" name);
  let shard = Citus.Metadata.shard_for_value meta ~table:"facts" (Datum.Int 3) in
  ignore
    (exec s
       (Printf.sprintf "SELECT citus_move_shard_placement(%d, 'worker3')"
          shard.Citus.Metadata.shard_id));
  Alcotest.(check string) "shard moved to the new node" "worker3"
    (Citus.Metadata.placement meta shard.Citus.Metadata.shard_id);
  check_int s "reference join on the new node" 1
    "SELECT count(*) FROM facts JOIN dim ON facts.d = dim.k WHERE facts.k = 3"

(* A columnar reference table is copied to an added node too: under the
   write lock, since columnar appends leave no WAL to catch up from. *)
let test_add_node_copies_columnar_reference () =
  let cluster = Cluster.Topology.create ~workers:3 () in
  let citus = Citus.Api.install ~shard_count:4 ~active_workers:2 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "CREATE TABLE cdim (k bigint, name text) USING COLUMNAR");
  ignore (exec s "INSERT INTO cdim VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  ignore (exec s "SELECT create_reference_table('cdim')");
  ignore (exec s "CREATE TABLE facts (k bigint, d bigint)");
  ignore (exec s "SELECT create_distributed_table('facts', 'k')");
  ignore (exec s "INSERT INTO facts VALUES (2, 2)");
  ignore (exec s "SELECT citus_add_node('worker3')");
  let meta = citus.Citus.Api.metadata in
  let cdim = List.hd (Citus.Metadata.shards_of meta "cdim") in
  let name = Citus.Metadata.shard_name cdim in
  Alcotest.(check bool) "worker3 holds a reference placement" true
    (List.mem "worker3"
       (Citus.Metadata.placements meta cdim.Citus.Metadata.shard_id));
  Alcotest.(check bool) "worker3 takes new shards" true
    (List.mem "worker3" citus.Citus.Api.active_data_nodes);
  Alcotest.(check int) "rows copied" 3 (rows_on cluster "worker3" name);
  let w3 = Cluster.Topology.find_node cluster "worker3" in
  Engine.Instance.restart w3.Cluster.Topology.instance;
  Alcotest.(check int) "the copy survives a restart" 3
    (rows_on cluster "worker3" name);
  let shard = Citus.Metadata.shard_for_value meta ~table:"facts" (Datum.Int 2) in
  ignore
    (exec s
       (Printf.sprintf "SELECT citus_move_shard_placement(%d, 'worker3')"
          shard.Citus.Metadata.shard_id));
  check_int s "reference join on the new node" 1
    "SELECT count(*) FROM facts JOIN cdim ON facts.d = cdim.k WHERE facts.k = 2"

(* A shard moved away and back keeps its index names. *)
let test_move_keeps_index_names () =
  let cluster, citus, s = make () in
  setup_items s;
  ignore (exec s "CREATE INDEX items_qty ON items USING BTREE (qty)");
  load_items s;
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 1) in
  let shard_id = shard.Citus.Metadata.shard_id in
  let name = Citus.Metadata.shard_name shard in
  let home = Citus.Metadata.placement meta shard_id in
  let away = if home = "worker1" then "worker2" else "worker1" in
  let before = index_names cluster home name in
  Alcotest.(check (list string)) "created names"
    [ name ^ "_pkey"; Printf.sprintf "items_qty_%d" shard_id ]
    before;
  ignore (Citus.Rebalancer.move_shard_group st ~shard_id ~to_node:away);
  Alcotest.(check (list string)) "after a move" before (index_names cluster away name);
  ignore (Citus.Rebalancer.move_shard_group st ~shard_id ~to_node:home);
  Alcotest.(check (list string)) "after moving back" before
    (index_names cluster home name);
  check_int s "lookup still served" 1 "SELECT count(*) FROM items WHERE key = 1"

let test_self_insert_select () =
  let _, _, s = make () in
  setup_items s;
  load_items ~n:10 s;
  (* self-referential INSERT..SELECT: doubles the rows per shard, shifted
     out of the original key space *)
  let r =
    exec s
      "INSERT INTO items (key, val, qty) SELECT key + 1000, val, qty FROM items"
  in
  Alcotest.(check int) "duplicated" 10 r.Engine.Instance.affected;
  check_int s "total" 20 "SELECT count(*) FROM items";
  check_int s "shifted copy present" 1 "SELECT count(*) FROM items WHERE key = 1003"

(* --- multi-coordinator (MX) --- *)

let test_metadata_sync_worker_as_coordinator () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  Citus.Api.enable_metadata_sync citus;
  let w1 = Cluster.Topology.find_node cluster "worker1" in
  let ws = Citus.Api.connect_via citus w1 in
  check_int ws "count via worker" 40 "SELECT count(*) FROM items";
  ignore (exec ws "INSERT INTO items (key, val, qty) VALUES (1000, 'via-worker', 1)");
  (* visible from the coordinator too *)
  check_int s "visible from coordinator" 1
    "SELECT count(*) FROM items WHERE key = 1000"

let test_mx_ddl_from_worker_propagates () =
  (* shared metadata means a worker-as-coordinator can run DDL too; every
     shard still gets the index *)
  let cluster, citus, s = make () in
  setup_items s;
  Citus.Api.enable_metadata_sync citus;
  let w1 = Cluster.Topology.find_node cluster "worker1" in
  let ws = Citus.Api.connect_via citus w1 in
  ignore (exec ws "CREATE INDEX items_qty2 ON items USING BTREE (qty)");
  let meta = citus.Citus.Api.metadata in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let node =
        Cluster.Topology.find_node cluster
          (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id)
      in
      let tbl =
        Engine.Catalog.find_table
          (Engine.Instance.catalog node.Cluster.Topology.instance)
          (Citus.Metadata.shard_name sh)
      in
      Alcotest.(check bool) "index on every shard" true
        (List.exists
           (fun (i : Engine.Catalog.index) ->
             String.length i.idx_name >= 10
             && String.sub i.idx_name 0 10 = "items_qty2")
           tbl.Engine.Catalog.indexes))
    (Citus.Metadata.shards_of meta "items")

(* A move or a tenant split run on a metadata-synced node builds each
   shard's indexes. *)
let test_mx_data_movement_keeps_indexes () =
  let cluster, citus, s = make () in
  setup_items s;
  ignore (exec s "CREATE INDEX items_qty ON items USING BTREE (qty)");
  load_items s;
  Citus.Api.enable_metadata_sync citus;
  let ws =
    Citus.Api.connect_via citus (Cluster.Topology.find_node cluster "worker1")
  in
  let meta = citus.Citus.Api.metadata in
  let indexes (sh : Citus.Metadata.shard) node =
    let name = Citus.Metadata.shard_name sh in
    index_names cluster node name
    |> List.map (fun idx ->
           (* the shard id suffix aside *)
           if String.equal idx (name ^ "_pkey") then "pkey"
           else String.sub idx 0 (String.rindex idx '_'))
    |> List.sort compare
  in
  let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 1) in
  let shard_id = shard.Citus.Metadata.shard_id in
  let away =
    if Citus.Metadata.placement meta shard_id = "worker1" then "worker2"
    else "worker1"
  in
  ignore
    (exec ws
       (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')" shard_id
          away));
  Alcotest.(check (list string)) "moved shard's indexes" [ "items_qty"; "pkey" ]
    (indexes shard away);
  ignore (exec ws "SELECT isolate_tenant_to_new_shard('items', 7)");
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      Alcotest.(check (list string))
        (Printf.sprintf "indexes of %s" (Citus.Metadata.shard_name sh))
        [ "items_qty"; "pkey" ]
        (indexes sh (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id)))
    (Citus.Metadata.shards_of meta "items");
  check_int s "tenant lookup" 1 "SELECT count(*) FROM items WHERE key = 7"

(* An ALTER run on one node reshapes [SELECT *] on every other: the
   single-shard and the multi-shard plan alike expand [*] from the one
   definition. *)
let test_mx_alter_seen_everywhere ~alter_on ~read_on () =
  let cluster, citus, s = make () in
  ignore (exec s "CREATE TABLE t (id bigint PRIMARY KEY, v text)");
  ignore (exec s "SELECT create_distributed_table('t', 'id')");
  for i = 1 to 6 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
  done;
  Citus.Api.enable_metadata_sync citus;
  let session = function
    | "coordinator" -> s
    | node ->
      Citus.Api.connect_via citus (Cluster.Topology.find_node cluster node)
  in
  ignore (exec (session alter_on) "ALTER TABLE t ADD COLUMN c bigint");
  let reader = session read_on in
  List.iter
    (fun sql ->
      let r = exec reader sql in
      Alcotest.(check (list string)) (sql ^ ": columns") [ "id"; "v"; "c" ]
        r.Engine.Instance.columns;
      List.iter
        (fun (row : Datum.t array) ->
          Alcotest.(check int) (sql ^ ": row width") 3 (Array.length row))
        r.Engine.Instance.rows)
    [ "SELECT * FROM t WHERE id = 2"; "SELECT * FROM t ORDER BY id" ]

(* A table created, distributed and indexed on a worker has one
   definition, which the coordinator reads: shards it later splits off or
   moves are built with the worker's index, though the coordinator never
   held the table. *)
let test_mx_worker_index_survives_movement () =
  let cluster, citus, s = make () in
  Citus.Api.enable_metadata_sync citus;
  let ws =
    Citus.Api.connect_via citus (Cluster.Topology.find_node cluster "worker1")
  in
  setup_items ws;
  ignore (exec ws "CREATE INDEX items_qty ON items USING BTREE (qty)");
  load_items ws;
  let meta = citus.Citus.Api.metadata in
  let check_indexes label (sh : Citus.Metadata.shard) =
    let name = Citus.Metadata.shard_name sh in
    Alcotest.(check (list string))
      (Printf.sprintf "%s: indexes of %s" label name)
      (List.sort compare
         [ name ^ "_pkey"; Printf.sprintf "items_qty_%d" sh.Citus.Metadata.shard_id ])
      (index_names cluster
         (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id)
         name)
  in
  let before = Citus.Metadata.shards_of meta "items" in
  ignore (exec s "SELECT isolate_tenant_to_new_shard('items', 7)");
  List.iter (check_indexes "split")
    (List.filter
       (fun (sh : Citus.Metadata.shard) -> not (List.memq sh before))
       (Citus.Metadata.shards_of meta "items"));
  let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 7) in
  let shard_id = shard.Citus.Metadata.shard_id in
  let away =
    if Citus.Metadata.placement meta shard_id = "worker1" then "worker2"
    else "worker1"
  in
  ignore
    (exec s
       (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')" shard_id
          away));
  check_indexes "move" shard;
  check_int s "tenant lookup" 1 "SELECT count(*) FROM items WHERE qty = 2 AND key = 7";
  check_int s "rows kept" 40 "SELECT count(*) FROM items"

(* Metadata sync after the catalog already has history (a move): every
   node plans against the one catalog, so a worker's fast-path reads
   match the coordinator's, and a move the worker runs is seen by the
   coordinator's very next read, with no sync step in between. *)
let test_mx_sync_after_move () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  let meta = citus.Citus.Api.metadata in
  let shard_id =
    (Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 1))
      .Citus.Metadata.shard_id
  in
  let move session =
    let from_node = Citus.Metadata.placement meta shard_id in
    let to_node = if from_node = "worker1" then "worker2" else "worker1" in
    ignore
      (exec session
         (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')" shard_id
            to_node));
    (from_node, to_node)
  in
  ignore (move s);
  ignore (exec s "SELECT citus_enable_metadata_sync()");
  let ws =
    Citus.Api.connect_via citus (Cluster.Topology.find_node cluster "worker1")
  in
  let row session k =
    (exec session
       (Printf.sprintf "SELECT key, val, qty FROM items WHERE key = %d" k))
      .Engine.Instance.rows
    |> List.map (fun r -> Array.to_list (Array.map Datum.to_display r))
  in
  let check_rows label =
    for k = 1 to 40 do
      Alcotest.(check (list (list string)))
        (Printf.sprintf "%s: key %d" label k)
        (row s k) (row ws k)
    done
  in
  check_rows "after sync";
  let from_node, to_node = move ws in
  Alcotest.(check string) "coordinator sees the worker's move" to_node
    (Citus.Metadata.placement meta shard_id);
  Alcotest.(check bool) "source placement dropped" true
    (Engine.Catalog.find_table_opt
       (Engine.Instance.catalog
          (Cluster.Topology.find_node cluster from_node).Cluster.Topology.instance)
       (Citus.Metadata.shard_name
          (Option.get (Citus.Metadata.shard_by_id meta shard_id)))
    = None);
  Alcotest.(check (list (list string))) "moved key read by the coordinator"
    [ [ "1"; "v1"; "1" ] ] (row s 1);
  check_rows "after the worker's move"

let test_mx_reference_read_local_to_worker () =
  let cluster, citus, _s = make () in
  let s0 = Citus.Api.connect citus in
  ignore (exec s0 "CREATE TABLE dims (id bigint, v text)");
  ignore (exec s0 "SELECT create_reference_table('dims')");
  ignore (exec s0 "INSERT INTO dims VALUES (1, 'x')");
  Citus.Api.enable_metadata_sync citus;
  let w2 = Cluster.Topology.find_node cluster "worker2" in
  let ws = Citus.Api.connect_via citus w2 in
  let before = Cluster.Topology.net_snapshot cluster in
  check_int ws "read via worker" 1 "SELECT count(*) FROM dims";
  let d =
    Cluster.Topology.net_diff ~after:(Cluster.Topology.net_snapshot cluster)
      ~before
  in
  (* served from worker2's own replica: no cross-node traffic *)
  Alcotest.(check int) "no cross-node round trips" 0
    d.Cluster.Topology.cross_round_trips

let test_procedure_delegation () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  Citus.Api.enable_metadata_sync citus;
  (* register the procedure on every node, as an application would *)
  List.iter
    (fun (node : Cluster.Topology.node) ->
      Engine.Instance.register_udf node.instance "bump_qty"
        (fun session args ->
          match args with
          | [ Datum.Int key; Datum.Int delta ] ->
            ignore
              (Engine.Instance.exec session
                 (Printf.sprintf "UPDATE items SET qty = qty + %d WHERE key = %d"
                    delta key));
            Datum.Null
          | _ -> failwith "bump_qty(key, delta)"))
    (Cluster.Topology.all_nodes cluster);
  ignore (exec s "SELECT create_distributed_function('bump_qty', 1, 'items')");
  let before = one_int s "SELECT qty FROM items WHERE key = 5" in
  ignore (exec s "CALL bump_qty(5, 7)");
  check_int s "delegated call applied" (before + 7)
    "SELECT qty FROM items WHERE key = 5";
  ignore citus

(* --- local execution --- *)

let counter cluster name =
  Obs.Metrics.counter_value (Cluster.Topology.metrics cluster) name

let node_of citus table k =
  let meta = citus.Citus.Api.metadata in
  Citus.Metadata.placement meta
    (Citus.Metadata.shard_for_value meta ~table (Datum.Int k))
      .Citus.Metadata.shard_id

(* the first key >= [from] of [table] placed (or not placed) on [node] *)
let key_on ?(from = 1) ?(on = true) citus table node =
  let rec go k =
    if k > 10_000 then Alcotest.fail "no such key"
    else if String.equal (node_of citus table k) node = on then k
    else go (k + 1)
  in
  go from

let state_of citus node =
  List.find
    (fun (st : Citus.State.t) ->
      String.equal st.Citus.State.local.Cluster.Topology.node_name node)
    citus.Citus.Api.states

let mgr_of cluster node =
  Engine.Instance.txn_manager
    (Cluster.Topology.find_node cluster node).Cluster.Topology.instance

(* Round trips from a node to itself: a loopback connection's traffic. *)
let loopback_round_trips cluster f =
  let before = Cluster.Topology.net_snapshot cluster in
  f ();
  let d =
    Cluster.Topology.net_diff ~after:(Cluster.Topology.net_snapshot cluster)
      ~before
  in
  d.Cluster.Topology.round_trips - d.Cluster.Topology.cross_round_trips

let tpcc_cfg =
  {
    Workloads.Tpcc.warehouses = 4;
    districts_per_warehouse = 2;
    customers_per_district = 4;
    items = 20;
    remote_txn_fraction = 0.0;
  }

let tpcc_rows (db : Workloads.Db.t) =
  List.concat_map
    (fun sql ->
      List.map
        (fun row ->
          String.concat "|" (Array.to_list (Array.map Datum.to_display row)))
        (Workloads.Db.exec db sql).Engine.Instance.rows)
    [
      "SELECT o_w_id, o_d_id, o_id, o_c_id FROM orders ORDER BY o_w_id, \
       o_d_id, o_id";
      "SELECT ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, \
       ol_amount FROM order_line ORDER BY ol_w_id, ol_d_id, ol_o_id, ol_number";
      "SELECT s_w_id, s_i_id, s_quantity FROM stock ORDER BY s_w_id, s_i_id";
      "SELECT d_w_id, d_id, d_next_o_id FROM district ORDER BY d_w_id, d_id";
    ]

(* A delegated NEW-ORDER is a single-node transaction on its warehouse's
   worker: every statement runs in the CALL's own session — no
   connection from the worker to itself, no worker-side prepared
   statement, no delegated COMMIT — and it writes what the same calls
   write run from the coordinator. *)
let test_delegated_new_order_runs_locally () =
  let calls =
    List.init 6 (fun i ->
        Printf.sprintf "CALL tpcc_new_order(%d, %d, %d, %d)" (1 + (i mod 4))
          (1 + (i mod 2)) (1 + (i mod 3)) (2 * (i + 10)))
  in
  let run ~delegate =
    let db = Workloads.Db.citus ~shard_count:8 ~workers:2 () in
    Workloads.Tpcc.setup db tpcc_cfg;
    if delegate then Workloads.Tpcc.enable_delegation db;
    let cluster = db.Workloads.Db.cluster in
    let prepares = counter cluster Obs.Metric_names.exec_worker_prepares
    and delegated = counter cluster Obs.Metric_names.twopc_delegated_commits
    and local = counter cluster Obs.Metric_names.exec_local_tasks in
    let loopback =
      loopback_round_trips cluster (fun () ->
          List.iter (fun sql -> ignore (Workloads.Db.exec db sql)) calls)
    in
    ( db,
      loopback,
      counter cluster Obs.Metric_names.exec_worker_prepares - prepares,
      counter cluster Obs.Metric_names.twopc_delegated_commits - delegated,
      counter cluster Obs.Metric_names.exec_local_tasks - local )
  in
  let db, loopback, prepares, delegated, local = run ~delegate:true in
  Alcotest.(check int) "no round trip from a node to itself" 0 loopback;
  Alcotest.(check int) "no worker-side prepares" 0 prepares;
  Alcotest.(check int) "no delegated commits" 0 delegated;
  Alcotest.(check bool) "statements ran locally" true (local > 0);
  let plain, _, _, _, _ = run ~delegate:false in
  Alcotest.(check (list string)) "rows match a non-delegated run"
    (tpcc_rows plain) (tpcc_rows db)

(* Local plus remote writes: one PREPARE (the remote node's), one commit
   record, and the local transaction commits at the very timestamp its
   participant's COMMIT PREPARED carries. *)
let test_local_and_remote_writes_share_a_timestamp () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  Citus.Api.enable_metadata_sync citus;
  let k1 = key_on citus "items" "worker1" in
  let k2 = key_on citus "items" "worker2" in
  let ws =
    Citus.Api.connect_via citus (Cluster.Topology.find_node cluster "worker1")
  in
  let wal2 = Txn.Manager.wal (mgr_of cluster "worker2") in
  let wal_before = Txn.Wal.size wal2 in
  let started = counter cluster Obs.Metric_names.twopc_started in
  ignore (exec ws "BEGIN");
  ignore (exec ws (Printf.sprintf "UPDATE items SET qty = 91 WHERE key = %d" k1));
  ignore (exec ws (Printf.sprintf "UPDATE items SET qty = 92 WHERE key = %d" k2));
  let local_xid = Option.get (Engine.Instance.current_xid ws) in
  ignore (exec ws "COMMIT");
  Alcotest.(check int) "one 2PC" 1
    (counter cluster Obs.Metric_names.twopc_started - started);
  Alcotest.(check int) "one commit record" 1
    (Citus.Twopc.commit_record_count (state_of citus "worker1"));
  let new_records =
    List.filteri (fun i _ -> i >= wal_before) (Txn.Wal.records wal2)
    |> List.map snd
  in
  let prepared =
    List.filter_map
      (function Txn.Wal.Prepare { xid; _ } -> Some xid | _ -> None)
      new_records
  in
  Alcotest.(check int) "one PREPARE, on the remote node" 1 (List.length prepared);
  let stamp mgr xid =
    match Txn.Manager.commit_ts_of mgr xid with
    | Some ts -> Txn.Hlc.to_string ts
    | None -> Alcotest.fail "transaction has no commit stamp"
  in
  Alcotest.(check string) "local commit at the COMMIT PREPARED stamp"
    (stamp (mgr_of cluster "worker2") (List.hd prepared))
    (stamp (mgr_of cluster "worker1") local_xid);
  check_int s "local write" 91
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1);
  check_int s "remote write" 92
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k2)

(* A snapshot read on a worker's own shard meets a prepared transaction
   whose COMMIT PREPARED never arrived: the local read resolves it from
   the origin's commit record — no connection to itself — and retries. *)
let test_local_snapshot_read_resolves_in_doubt () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  Citus.Api.enable_metadata_sync citus;
  ignore (exec s "SELECT citus_set_config('consistency', 'snapshot')");
  let k1 = key_on citus "items" "worker1" in
  let k2 = key_on citus "items" "worker2" in
  let coord = Citus.Api.coordinator_state citus in
  ignore (exec s "BEGIN");
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 77 WHERE key = %d" k1));
  ignore (exec s (Printf.sprintf "UPDATE items SET qty = 78 WHERE key = %d" k2));
  Citus.State.inject_failure coord ~node:"worker1" ~matching:"COMMIT PREPARED";
  ignore (exec s "COMMIT");
  Citus.State.clear_failures coord;
  let prepared () =
    List.length (Txn.Manager.prepared_transactions (mgr_of cluster "worker1"))
  in
  Alcotest.(check int) "worker1 holds the in-doubt transaction" 1 (prepared ());
  (* a round trip from the coordinator carries its clock to worker1, so
     the reader's snapshot is later than the distributed commit *)
  let k3 = key_on ~from:(k1 + 1) citus "items" "worker1" in
  ignore (exec s (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k3));
  let ws =
    Citus.Api.connect_via citus (Cluster.Topology.find_node cluster "worker1")
  in
  let read_k1 () =
    one_int ws (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1)
  in
  (* while the origin is cut off nothing decides the gid: the read fails
     rather than wait with no round trip that could ever end it *)
  let w1 = state_of citus "worker1" in
  Citus.State.partition_node w1 "coordinator";
  (match read_k1 () with
   | exception Engine.Instance.Session_error m ->
     Alcotest.(check bool) "names the unreachable coordinator" true
       (String.length m > 0
        && List.exists (String.equal "unreachable")
             (String.split_on_char ' ' m))
   | _ -> Alcotest.fail "a read that cannot resolve its in-doubt gid must fail");
  Citus.State.heal_node w1 "coordinator";
  let waits = counter cluster Obs.Metric_names.snapshot_indoubt_waits
  and commits = counter cluster Obs.Metric_names.snapshot_indoubt_commits
  and local = counter cluster Obs.Metric_names.exec_local_tasks in
  let loopback =
    loopback_round_trips cluster (fun () ->
        Alcotest.(check int) "the read sees the resolved commit" 77
          (read_k1 ()))
  in
  Alcotest.(check bool) "the local read met the in-doubt gid" true
    (counter cluster Obs.Metric_names.snapshot_indoubt_waits > waits);
  Alcotest.(check bool) "and committed it" true
    (counter cluster Obs.Metric_names.snapshot_indoubt_commits > commits);
  Alcotest.(check bool) "the read ran locally" true
    (counter cluster Obs.Metric_names.exec_local_tasks > local);
  Alcotest.(check int) "no round trip from worker1 to itself" 0 loopback;
  Alcotest.(check int) "nothing left in doubt" 0 (prepared ())

(* A distributed deadlock whose one edge is a local write: worker1's
   session updates its own shard in its own transaction, and that xid
   joins the global graph as a distributed vertex the detector can
   cancel, instead of an uncancellable local one. *)
let test_deadlock_through_local_write () =
  let cluster, citus, s2 = make () in
  setup_items s2;
  load_items s2;
  Citus.Api.enable_metadata_sync citus;
  let k1 = key_on citus "items" "worker1" in
  let k2 = key_on citus "items" "worker2" in
  let w1 = Cluster.Topology.find_node cluster "worker1" in
  ignore (exec s2 "BEGIN");
  ignore (exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k2));
  let x2 = Option.get (Engine.Instance.current_xid s2) in
  (* worker1's session is the younger transaction: the detector's victim *)
  let burn = Citus.Api.connect_via citus w1 in
  let s1 = Citus.Api.connect_via citus w1 in
  let rec begin_younger () =
    ignore (exec s1 "BEGIN");
    if Option.get (Engine.Instance.current_xid s1) <= x2 then begin
      ignore (exec s1 "ROLLBACK");
      for _ = 1 to 64 do ignore (exec burn "SELECT 1") done;
      begin_younger ()
    end
  in
  begin_younger ();
  let x1 = Option.get (Engine.Instance.current_xid s1) in
  ignore (exec s1 (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k1));
  (match exec s1 (Printf.sprintf "UPDATE items SET qty = 1 WHERE key = %d" k2) with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "worker1's session should block on worker2");
  (match exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k1) with
   | exception Engine.Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "the coordinator's session should block on worker1");
  let st = Citus.Api.coordinator_state citus in
  let local_vertex = Citus.Deadlock.Dist_txn ("worker1", x1) in
  let edges = Citus.Deadlock.gather_edges st in
  Alcotest.(check bool) "the local xid waits as a distributed vertex" true
    (List.exists (fun (a, b) -> a = local_vertex || b = local_vertex) edges);
  Alcotest.(check bool) "no wait edge ends at a local-only vertex" true
    (List.for_all
       (function
         | Citus.Deadlock.Dist_txn _, Citus.Deadlock.Dist_txn _ -> true
         | _ -> false)
       edges);
  (match Citus.Deadlock.detect_and_cancel st with
   | Some v ->
     Alcotest.(check string) "the local transaction is the victim"
       (Citus.Deadlock.vertex_to_string local_vertex)
       (Citus.Deadlock.vertex_to_string v)
   | None -> Alcotest.fail "deadlock through a local write not detected");
  Alcotest.(check bool) "its local xid is aborted" false
    (Txn.Manager.is_active (mgr_of cluster "worker1") x1);
  ignore (exec s2 (Printf.sprintf "UPDATE items SET qty = 2 WHERE key = %d" k1));
  ignore (exec s2 "COMMIT");
  (match exec s1 "SELECT 1" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "the victim should observe its abort");
  check_int s2 "survivor's write" 2
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1)

(* Local DML, then DDL and COPY on the same node inside one block: all of
   it runs in the session's one transaction, so nothing waits on
   itself. *)
let test_local_dml_then_ddl_and_copy () =
  let cluster, citus, s = make () in
  setup_items s;
  load_items s;
  Citus.Api.enable_metadata_sync citus;
  let k1 = key_on citus "items" "worker1" in
  let k_new = key_on ~from:1000 citus "items" "worker1" in
  let ws =
    Citus.Api.connect_via citus (Cluster.Topology.find_node cluster "worker1")
  in
  (* a local error is a statement error: the node's breaker never hears
     of it *)
  let failures () =
    List.fold_left
      (fun acc (r : Citus.Health.node_report) -> acc + r.Citus.Health.nr_failures)
      0
      (Citus.Health.report (state_of citus "worker1").Citus.State.health)
  in
  let before = failures () in
  (match
     exec ws (Printf.sprintf "UPDATE items SET qty = 1 / 0 WHERE key = %d" k1)
   with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "division by zero must fail the statement");
  Alcotest.(check int) "no breaker failure" before (failures ());
  let loopback =
    loopback_round_trips cluster (fun () ->
        ignore (exec ws "BEGIN");
        ignore
          (exec ws (Printf.sprintf "UPDATE items SET qty = 5 WHERE key = %d" k1));
        ignore (exec ws "CREATE INDEX items_val ON items USING BTREE (val)");
        ignore
          (Engine.Instance.copy_in ws ~table:"items" ~columns:None
             [ Printf.sprintf "%d\tcopied\t3" k_new ]);
        check_int ws "copied row visible in the block" 3
          (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k_new);
        ignore (exec ws "COMMIT"))
  in
  Alcotest.(check int) "no round trip from worker1 to itself" 0 loopback;
  check_int s "update committed" 5
    (Printf.sprintf "SELECT qty FROM items WHERE key = %d" k1);
  check_int s "copy committed" 1
    (Printf.sprintf "SELECT count(*) FROM items WHERE key = %d" k_new);
  let shard = Citus.Metadata.shard_for_value citus.Citus.Api.metadata
      ~table:"items" (Datum.Int k1) in
  Alcotest.(check bool) "index built on worker1's shard" true
    (List.exists
       (fun n -> String.length n >= 9 && String.sub n 0 9 = "items_val")
       (index_names cluster "worker1" (Citus.Metadata.shard_name shard)))

let () =
  Alcotest.run "citus"
    [
      ( "wal",
        [ Alcotest.test_case "reads append nothing" `Quick test_reads_append_no_wal ] );
      ( "metadata",
        [
          Alcotest.test_case "shards + placements" `Quick test_metadata_shards;
          Alcotest.test_case "colocation" `Quick test_colocation;
          Alcotest.test_case "hash determinism" `Quick
            test_shard_for_value_deterministic;
        ] );
      ( "routing",
        [
          Alcotest.test_case "distributed crud" `Quick test_distributed_crud;
          Alcotest.test_case "data on workers" `Quick test_data_on_workers;
          Alcotest.test_case "planner tiers" `Quick test_planner_tiers;
          Alcotest.test_case "multi-row insert" `Quick test_multi_row_insert_split;
          Alcotest.test_case "quoted key routes by type" `Quick
            test_quoted_key_routes_by_column_type;
          Alcotest.test_case "insert needs dist col" `Quick
            test_insert_requires_dist_column;
          Alcotest.test_case "shard pruning" `Quick test_shard_pruning_in_list;
          Alcotest.test_case "local tables coexist" `Quick
            test_local_tables_coexist;
          Alcotest.test_case "cte over distributed" `Quick
            test_cte_over_distributed_table;
          Alcotest.test_case "hybrid local x reference" `Quick
            test_hybrid_local_reference_join;
          Alcotest.test_case "params distributed" `Quick
            test_exec_params_distributed;
        ] );
      ( "pushdown",
        [
          Alcotest.test_case "aggregates" `Quick test_pushdown_aggregates;
          Alcotest.test_case "kept plans on workers" `Quick test_pushdown_runs_kept_plans;
          Alcotest.test_case "merge keeps coordinator plans" `Quick
            test_merge_keeps_coordinator_plans;
          Alcotest.test_case "group by" `Quick test_pushdown_group_by;
          Alcotest.test_case "order/limit" `Quick test_pushdown_order_limit;
          Alcotest.test_case "colocated join" `Quick test_pushdown_colocated_join;
          Alcotest.test_case "reference join" `Quick test_pushdown_reference_join;
          Alcotest.test_case "non-colocated rejected" `Quick
            test_non_colocated_join_rejected;
          Alcotest.test_case "venicedb subquery" `Quick
            test_venicedb_nested_subquery_pushdown;
          Alcotest.test_case "bad subquery rejected" `Quick
            test_subquery_group_without_dist_rejected;
          Alcotest.test_case "count distinct" `Quick
            test_count_distinct_with_dist_group;
        ] );
      ( "reference",
        [
          Alcotest.test_case "replication" `Quick test_reference_table_replication;
          Alcotest.test_case "local read" `Quick test_reference_read_is_local;
          Alcotest.test_case "write uses 2pc" `Quick test_reference_write_uses_2pc;
        ] );
      ( "storage_variants",
        [
          Alcotest.test_case "columnar distributed" `Quick
            test_columnar_distributed_table;
          Alcotest.test_case "distributed vacuum" `Quick test_distributed_vacuum;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "single node txn" `Quick
            test_single_node_txn_commit_abort;
          Alcotest.test_case "2pc commit" `Quick test_2pc_commit_across_nodes;
          Alcotest.test_case "2pc abort" `Quick test_2pc_abort_across_nodes;
          Alcotest.test_case "2pc partition recovery" `Quick
            test_2pc_recovery_after_partition;
          Alcotest.test_case "2pc orphan rollback" `Quick
            test_2pc_recovery_rolls_back_orphans;
          Alcotest.test_case "prepare failure aborts" `Quick
            test_2pc_prepare_failure_aborts_everywhere;
          Alcotest.test_case "distributed deadlock" `Quick
            test_distributed_deadlock_detection;
          Alcotest.test_case "retry breaks deadlock" `Quick
            test_exec_with_retries_breaks_deadlock;
        ] );
      ( "copy",
        [
          Alcotest.test_case "routing" `Quick test_copy_routing;
          Alcotest.test_case "reference" `Quick test_copy_reference;
          Alcotest.test_case "copy in txn aborts" `Quick
            test_copy_in_transaction_aborts_cleanly;
        ] );
      ( "insert_select",
        [
          Alcotest.test_case "colocated" `Quick test_insert_select_colocated;
          Alcotest.test_case "repartition" `Quick test_insert_select_repartition;
          Alcotest.test_case "pull" `Quick test_insert_select_pull;
          Alcotest.test_case "self insert..select" `Quick test_self_insert_select;
          Alcotest.test_case "into reference" `Quick
            test_insert_select_into_reference;
        ] );
      ( "ddl",
        [
          Alcotest.test_case "propagation" `Quick test_ddl_propagation;
          Alcotest.test_case "drop distributed" `Quick test_drop_distributed_table;
          Alcotest.test_case "convert with rows" `Quick
            test_convert_table_with_existing_rows;
          Alcotest.test_case "conversion errors" `Quick test_conversion_errors;
          Alcotest.test_case "convert replicated" `Quick
            test_convert_replicated_tables;
          Alcotest.test_case "add node copies reference" `Quick
            test_add_node_copies_reference_tables;
          Alcotest.test_case "add node copies columnar reference" `Quick
            test_add_node_copies_columnar_reference;
          Alcotest.test_case "move keeps index names" `Quick
            test_move_keeps_index_names;
        ] );
      ( "mx",
        [
          Alcotest.test_case "worker as coordinator" `Quick
            test_metadata_sync_worker_as_coordinator;
          Alcotest.test_case "procedure delegation" `Quick
            test_procedure_delegation;
          Alcotest.test_case "ddl from worker" `Quick
            test_mx_ddl_from_worker_propagates;
          Alcotest.test_case "reference read local to worker" `Quick
            test_mx_reference_read_local_to_worker;
          Alcotest.test_case "data movement keeps indexes" `Quick
            test_mx_data_movement_keeps_indexes;
          Alcotest.test_case "sync after a move" `Quick test_mx_sync_after_move;
          Alcotest.test_case "worker alter seen by coordinator" `Quick
            (test_mx_alter_seen_everywhere ~alter_on:"worker1"
               ~read_on:"coordinator");
          Alcotest.test_case "coordinator alter seen by worker" `Quick
            (test_mx_alter_seen_everywhere ~alter_on:"coordinator"
               ~read_on:"worker2");
          Alcotest.test_case "worker index survives movement" `Quick
            test_mx_worker_index_survives_movement;
        ] );
      ( "local-execution",
        [
          Alcotest.test_case "delegated new-order runs locally" `Quick
            test_delegated_new_order_runs_locally;
          Alcotest.test_case "local and remote writes share a timestamp"
            `Quick test_local_and_remote_writes_share_a_timestamp;
          Alcotest.test_case "local snapshot read resolves in-doubt" `Quick
            test_local_snapshot_read_resolves_in_doubt;
          Alcotest.test_case "deadlock through a local write" `Quick
            test_deadlock_through_local_write;
          Alcotest.test_case "local dml then ddl and copy" `Quick
            test_local_dml_then_ddl_and_copy;
        ] );
    ]
