(* Join-order planner (re-partition / broadcast joins) and shard
   rebalancer tests. *)

let make ?(workers = 2) ?(shard_count = 8) () =
  let cluster = Cluster.Topology.create ~workers () in
  let citus = Citus.Api.install ~shard_count cluster in
  let s = Citus.Api.connect citus in
  (cluster, citus, s)

let exec s sql = Engine.Instance.exec s sql

let one_int s sql =
  match (exec s sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | _ -> Alcotest.fail (Printf.sprintf "expected one int from %S" sql)

let check_int s msg expected sql = Alcotest.(check int) msg expected (one_int s sql)

(* lineitem distributed by order_key; part distributed by part_key:
   l JOIN p ON l.part_key = p.part_key is non-co-located. *)
let setup_warehouse s =
  ignore (exec s "CREATE TABLE lineitem (order_key bigint, part_key bigint, qty bigint)");
  ignore (exec s "SELECT create_distributed_table('lineitem', 'order_key')");
  ignore (exec s "CREATE TABLE part (part_key bigint, name text, size bigint)");
  ignore (exec s "SELECT create_distributed_table('part', 'part_key')");
  ignore (exec s "BEGIN");
  for o = 1 to 30 do
    for l = 1 to 2 do
      ignore
        (exec s
           (Printf.sprintf
              "INSERT INTO lineitem (order_key, part_key, qty) VALUES (%d, %d, %d)"
              o (((o + l) mod 10) + 1) l))
    done
  done;
  for p = 1 to 10 do
    ignore
      (exec s
         (Printf.sprintf "INSERT INTO part (part_key, name, size) VALUES (%d, 'p%d', %d)"
            p p (p mod 4)))
  done;
  ignore (exec s "COMMIT")

let test_repartition_join_via_sql () =
  let _, _, s = make () in
  setup_warehouse s;
  (* the join-order planner kicks in transparently behind the hook *)
  check_int s "non-colocated join count" 60
    "SELECT count(*) FROM lineitem JOIN part ON lineitem.part_key = part.part_key";
  check_int s "filtered join" 18
    "SELECT count(*) FROM lineitem JOIN part ON lineitem.part_key = part.part_key \
     WHERE part.size = 2"

let test_join_order_decision () =
  let _, citus, s = make () in
  setup_warehouse s;
  let st = Citus.Api.coordinator_state citus in
  let sel =
    Sqlfront.Parser.parse_select
      "SELECT count(*) FROM lineitem JOIN part ON lineitem.part_key = part.part_key"
  in
  let result, decision, _report = Citus.Join_order.execute st s sel in
  (match result.Engine.Instance.rows with
   | [ [| Datum.Int 60 |] ] -> ()
   | _ -> Alcotest.fail "wrong result");
  (* part (10 rows) is cheaper to move than lineitem (60): the anchor must
     be lineitem, and part is either broadcast or re-partitioned *)
  Alcotest.(check string) "anchor" "lineitem" decision.Citus.Join_order.anchor;
  (match decision.Citus.Join_order.moves with
   | [ Citus.Join_order.Broadcast { table = "part"; rows = 10 } ]
   | [ Citus.Join_order.Repartition { table = "part"; rows = 10 } ] ->
     ()
   | _ -> Alcotest.fail "unexpected move set")

let test_repartition_with_aggregation () =
  let _, _, s = make () in
  setup_warehouse s;
  let rows =
    (exec s
       "SELECT part.name, sum(lineitem.qty) FROM lineitem JOIN part \
        ON lineitem.part_key = part.part_key GROUP BY part.name ORDER BY part.name LIMIT 3")
      .Engine.Instance.rows
  in
  Alcotest.(check int) "3 rows" 3 (List.length rows)

let test_broadcast_when_too_large_to_ship_fails () =
  let _, _, s = make () in
  (* two dist tables joined on neither dist column: infeasible without
     dual re-partition *)
  ignore (exec s "CREATE TABLE a (k bigint, x bigint)");
  ignore (exec s "SELECT create_distributed_table('a', 'k')");
  ignore (exec s "CREATE TABLE b (k bigint, y bigint)");
  ignore (exec s "SELECT create_distributed_table('b', 'k', 'a')");
  (* colocated but joined on non-dist columns, and force them too big to
     broadcast *)
  Citus.Join_order.broadcast_threshold := 0;
  let cleanup () = Citus.Join_order.broadcast_threshold := 10_000 in
  Fun.protect ~finally:cleanup (fun () ->
      ignore (exec s "INSERT INTO a (k, x) VALUES (1, 1), (2, 2)");
      ignore (exec s "INSERT INTO b (k, y) VALUES (1, 1), (2, 2)");
      match exec s "SELECT count(*) FROM a JOIN b ON a.x = b.y" with
      | exception Engine.Instance.Session_error _ -> ()
      | _ -> Alcotest.fail "should be unsupported")

let test_broadcast_small_table_on_non_dist_join () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE big (k bigint, cat bigint)");
  ignore (exec s "SELECT create_distributed_table('big', 'k')");
  ignore (exec s "CREATE TABLE small (id bigint, cat bigint, label text)");
  ignore (exec s "SELECT create_distributed_table('small', 'id')");
  ignore (exec s "BEGIN");
  for i = 1 to 20 do
    ignore (exec s (Printf.sprintf "INSERT INTO big (k, cat) VALUES (%d, %d)" i (i mod 4)))
  done;
  for c = 0 to 3 do
    ignore
      (exec s
         (Printf.sprintf "INSERT INTO small (id, cat, label) VALUES (%d, %d, 'c%d')"
            (c + 1) c c))
  done;
  ignore (exec s "COMMIT");
  (* join on big.cat = small.cat: neither side's dist column on the small
     side; small must be broadcast *)
  check_int s "broadcast join" 20
    "SELECT count(*) FROM big JOIN small ON big.cat = small.cat"

(* --- rebalancer --- *)

let test_move_shard_group () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v text)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to 50 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, 'v%d')" i i))
  done;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = List.hd (Citus.Metadata.shards_of meta "t") in
  let from_node = Citus.Metadata.placement meta shard.Citus.Metadata.shard_id in
  let to_node = if from_node = "worker1" then "worker2" else "worker1" in
  let m =
    Citus.Rebalancer.move_shard_group st ~shard_id:shard.Citus.Metadata.shard_id
      ~to_node
  in
  Alcotest.(check string) "moved to" to_node m.Citus.Rebalancer.to_node;
  Alcotest.(check string) "new placement" to_node
    (Citus.Metadata.placement meta shard.Citus.Metadata.shard_id);
  (* data still complete and queries still work *)
  check_int s "all rows" 50 "SELECT count(*) FROM t";
  check_int s "routed lookup still works" 1 "SELECT count(*) FROM t WHERE k = 17"

let test_move_applies_wal_delta () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  for i = 1 to 20 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, 0)" i))
  done;
  (* concurrent-ish write after metadata known: the move's snapshot copy
     plus WAL catchup must capture committed writes *)
  ignore (exec s "UPDATE t SET v = 42 WHERE k = 3");
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table:"t" (Datum.Int 3) in
  let from_node = Citus.Metadata.placement meta shard.Citus.Metadata.shard_id in
  let to_node = if from_node = "worker1" then "worker2" else "worker1" in
  ignore
    (Citus.Rebalancer.move_shard_group st ~shard_id:shard.Citus.Metadata.shard_id
       ~to_node);
  check_int s "update survived the move" 42 "SELECT v FROM t WHERE k = 3";
  ignore (exec s "UPDATE t SET v = 43 WHERE k = 3");
  check_int s "writes to the new placement work" 43 "SELECT v FROM t WHERE k = 3"

(* The move copies rows below the executor under the destination's own
   apply transaction; logging them through the manager marks it as having
   written, so its commit is logged and a restart of the destination
   replays every row as committed. *)
let test_move_survives_destination_restart () =
  let cluster, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to 50 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, %d)" i i))
  done;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table:"t" (Datum.Int 7) in
  let from_node = Citus.Metadata.placement meta shard.Citus.Metadata.shard_id in
  let to_node = if from_node = "worker1" then "worker2" else "worker1" in
  ignore
    (Citus.Rebalancer.move_shard_group st ~shard_id:shard.Citus.Metadata.shard_id
       ~to_node);
  Engine.Instance.restart
    (Cluster.Topology.find_node cluster to_node).Cluster.Topology.instance;
  Citus.State.reset_sessions st;
  let s = Citus.Api.connect citus in
  check_int s "every row after the destination restarts" 50
    "SELECT count(*) FROM t";
  check_int s "sum unchanged" 1275 "SELECT sum(v) FROM t";
  check_int s "moved row readable" 7 "SELECT v FROM t WHERE k = 7"

let test_move_colocated_together () =
  let _, citus, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint, v bigint)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "CREATE TABLE u (k bigint, w bigint)");
  ignore (exec s "SELECT create_distributed_table('u', 'k', 't')");
  ignore (exec s "INSERT INTO t (k, v) VALUES (1, 10)");
  ignore (exec s "INSERT INTO u (k, w) VALUES (1, 20)");
  let st = Citus.Api.coordinator_state citus in
  let meta = citus.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table:"t" (Datum.Int 1) in
  let from_node = Citus.Metadata.placement meta shard.Citus.Metadata.shard_id in
  let to_node = if from_node = "worker1" then "worker2" else "worker1" in
  let m =
    Citus.Rebalancer.move_shard_group st ~shard_id:shard.Citus.Metadata.shard_id
      ~to_node
  in
  Alcotest.(check int) "both shards moved" 2
    (List.length m.Citus.Rebalancer.moved_shards);
  (* the co-located join still works after the move *)
  check_int s "join after move" 1
    "SELECT count(*) FROM t JOIN u ON t.k = u.k WHERE t.k = 1"

let test_rebalance_after_add_node () =
  let cluster = Cluster.Topology.create ~workers:3 () in
  (* start with only 2 active workers; worker3 joins later *)
  let citus = Citus.Api.install ~shard_count:8 ~active_workers:2 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "CREATE TABLE t (k bigint, v text)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to 64 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, 'x')" i))
  done;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  Alcotest.(check int) "two nodes before" 2
    (List.length (Citus.Rebalancer.distribution st));
  ignore (exec s "SELECT citus_add_node('worker3')");
  let moves = Citus.Rebalancer.rebalance st in
  Alcotest.(check bool) "moved some shards" true (List.length moves > 0);
  let dist = Citus.Rebalancer.distribution st in
  Alcotest.(check int) "three nodes" 3 (List.length dist);
  List.iter
    (fun (_n, count) ->
      Alcotest.(check bool) "roughly even" true (count >= 2 && count <= 3))
    dist;
  check_int s "data intact" 64 "SELECT count(*) FROM t"

let test_rebalance_by_size () =
  let _, citus, s = make ~shard_count:4 () in
  ignore (exec s "CREATE TABLE t (k bigint, v text)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  ignore (exec s "BEGIN");
  for i = 1 to 100 do
    ignore (exec s (Printf.sprintf "INSERT INTO t (k, v) VALUES (%d, 'x')" i))
  done;
  ignore (exec s "COMMIT");
  let st = Citus.Api.coordinator_state citus in
  let moves = Citus.Rebalancer.rebalance ~policy:Citus.Rebalancer.By_size st in
  ignore moves;
  check_int s "data intact after size rebalance" 100 "SELECT count(*) FROM t"

let test_rebalance_udf () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint, v text)");
  ignore (exec s "SELECT create_distributed_table('t', 'k')");
  match (exec s "SELECT rebalance_table_shards()").Engine.Instance.rows with
  | [ [| Datum.Int _ |] ] -> ()
  | _ -> Alcotest.fail "udf failed"

let () =
  Alcotest.run "citus_advanced"
    [
      ( "join_order",
        [
          Alcotest.test_case "repartition join" `Quick test_repartition_join_via_sql;
          Alcotest.test_case "decision" `Quick test_join_order_decision;
          Alcotest.test_case "with aggregation" `Quick
            test_repartition_with_aggregation;
          Alcotest.test_case "infeasible rejected" `Quick
            test_broadcast_when_too_large_to_ship_fails;
          Alcotest.test_case "broadcast small" `Quick
            test_broadcast_small_table_on_non_dist_join;
        ] );
      ( "rebalancer",
        [
          Alcotest.test_case "move shard group" `Quick test_move_shard_group;
          Alcotest.test_case "wal delta" `Quick test_move_applies_wal_delta;
          Alcotest.test_case "survives destination restart" `Quick
            test_move_survives_destination_restart;
          Alcotest.test_case "colocated together" `Quick
            test_move_colocated_together;
          Alcotest.test_case "add node + rebalance" `Quick
            test_rebalance_after_add_node;
          Alcotest.test_case "by size" `Quick test_rebalance_by_size;
          Alcotest.test_case "udf" `Quick test_rebalance_udf;
        ] );
    ]
