(* Workload generators and drivers, validated on both the plain-PostgreSQL
   baseline and Citus setups — results must agree. *)

let small_tpcc =
  {
    Workloads.Tpcc.warehouses = 4;
    districts_per_warehouse = 2;
    customers_per_district = 5;
    items = 20;
    remote_txn_fraction = 0.2;
  }

let one_int db sql =
  match (Workloads.Db.exec db sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | _ -> Alcotest.fail ("no int from " ^ sql)

(* --- TPC-C --- *)

let run_tpcc db =
  Workloads.Tpcc.setup db small_tpcc;
  let rng = Random.State.make [| 3 |] in
  let remote = ref 0 in
  for _ = 1 to 60 do
    let _kind, was_remote =
      Workloads.Tpcc.run_one db db.Workloads.Db.session small_tpcc rng
    in
    if was_remote then incr remote
  done;
  !remote

let test_tpcc_on_postgres () =
  let db = Workloads.Db.postgres () in
  ignore (run_tpcc db);
  Alcotest.(check bool) "orders created" true (Workloads.Db.count db "orders" > 0);
  Alcotest.(check bool) "invariant" true
    (Workloads.Tpcc.orders_match_district_counters db small_tpcc)

let test_tpcc_on_citus_matches_postgres () =
  let pg = Workloads.Db.postgres () in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  ignore (run_tpcc pg);
  ignore (run_tpcc cz);
  (* same seed, same transaction stream: identical resulting state *)
  List.iter
    (fun table ->
      Alcotest.(check int)
        (table ^ " row counts agree")
        (Workloads.Db.count pg table) (Workloads.Db.count cz table))
    [ "orders"; "order_line"; "new_order"; "customer"; "stock" ];
  Alcotest.(check (float 0.001)) "balances agree"
    (Workloads.Tpcc.total_customer_balance pg)
    (Workloads.Tpcc.total_customer_balance cz);
  Alcotest.(check bool) "citus invariant" true
    (Workloads.Tpcc.orders_match_district_counters cz small_tpcc)

let test_tpcc_with_delegation () =
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Tpcc.setup cz small_tpcc;
  Workloads.Tpcc.enable_delegation cz;
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 40 do
    ignore (Workloads.Tpcc.run_one cz cz.Workloads.Db.session small_tpcc rng)
  done;
  Alcotest.(check bool) "invariant under delegation" true
    (Workloads.Tpcc.orders_match_district_counters cz small_tpcc)

(* --- YCSB --- *)

let test_ycsb () =
  let cfg = { Workloads.Ycsb.rows = 100; fields = 3; field_length = 8 } in
  let pg = Workloads.Db.postgres () in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Ycsb.setup pg cfg;
  Workloads.Ycsb.setup cz cfg;
  Alcotest.(check int) "pg rows" 100 (Workloads.Db.count pg "usertable");
  Alcotest.(check int) "citus rows" 100 (Workloads.Db.count cz "usertable");
  let rng1 = Random.State.make [| 5 |] and rng2 = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let o1 = Workloads.Ycsb.run_one pg.Workloads.Db.session cfg rng1 in
    let o2 = Workloads.Ycsb.run_one cz.Workloads.Db.session cfg rng2 in
    Alcotest.(check bool) "same op sequence" true (o1 = o2)
  done

let test_ycsb_mix_roughly_even () =
  let cfg = Workloads.Ycsb.default_config in
  let rng = Random.State.make [| 9 |] in
  let reads = ref 0 in
  for _ = 1 to 1000 do
    match Workloads.Ycsb.next_op cfg rng with
    | Workloads.Ycsb.Read, key ->
      Alcotest.(check bool) "key in range" true (key >= 1 && key <= cfg.rows);
      incr reads
    | Workloads.Ycsb.Update, _ -> ()
  done;
  Alcotest.(check bool) "roughly 50/50" true (!reads > 400 && !reads < 600)

let test_delivery_credits_customers () =
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Tpcc.setup cz small_tpcc;
  let s = cz.Workloads.Db.session in
  (* place a couple of orders in warehouse 1, then deliver them *)
  ignore (Workloads.Db.exec_on s "CALL tpcc_new_order(1, 1, 2, 40)");
  ignore (Workloads.Db.exec_on s "CALL tpcc_new_order(1, 2, 3, 42)");
  Alcotest.(check int) "2 undelivered" 2
    (one_int cz "SELECT count(*) FROM new_order WHERE no_w_id = 1");
  let before = Workloads.Tpcc.total_customer_balance cz in
  ignore (Workloads.Db.exec_on s "CALL tpcc_delivery(1)");
  Alcotest.(check int) "delivered" 0
    (one_int cz "SELECT count(*) FROM new_order WHERE no_w_id = 1");
  Alcotest.(check bool) "balances credited" true
    (Workloads.Tpcc.total_customer_balance cz > before)

let test_mx_pgbench_invariant () =
  (* clients on two different coordinators interleave two-update
     transactions; the global invariant must hold *)
  let cfg = { Workloads.Pgbench.rows = 40 } in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Pgbench.setup cz cfg;
  (match cz.Workloads.Db.citus with
   | Some api -> Citus.Api.enable_metadata_sync api
   | None -> ());
  let api = Option.get cz.Workloads.Db.citus in
  let s1 =
    Citus.Api.connect_via api
      (Cluster.Topology.find_node cz.Workloads.Db.cluster "worker1")
  in
  let s2 =
    Citus.Api.connect_via api
      (Cluster.Topology.find_node cz.Workloads.Db.cluster "worker2")
  in
  let rng = Random.State.make [| 8 |] in
  for i = 1 to 40 do
    let s = if i mod 2 = 0 then s1 else s2 in
    ignore
      (Workloads.Pgbench.run_one cz s cfg Workloads.Pgbench.Different_keys rng)
  done;
  Alcotest.(check bool) "invariant across coordinators" true
    (Workloads.Pgbench.balance_invariant_holds cz)

(* --- gharchive --- *)

let test_gharchive_load_and_dashboard () =
  let cfg =
    { Workloads.Gharchive.events = 200; days = 5; commits_per_event = 2;
      postgres_fraction = 0.2 }
  in
  let pg = Workloads.Db.postgres () in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  List.iter
    (fun db ->
      Workloads.Gharchive.setup_schema db;
      let n = Workloads.Gharchive.load db cfg in
      Alcotest.(check int) "loaded" 200 n)
    [ pg; cz ];
  let run db = Workloads.Db.exec db Workloads.Gharchive.dashboard_query in
  let rows_pg = (run pg).Engine.Instance.rows in
  let rows_cz = (run cz).Engine.Instance.rows in
  Alcotest.(check bool) "dashboard finds events" true (List.length rows_pg > 0);
  Alcotest.(check int) "same day buckets" (List.length rows_pg)
    (List.length rows_cz);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "identical rows" true (a = b))
    rows_pg rows_cz

(* The dashboard's shard statements lift its ILIKE pattern to a [$k],
   which no generic plan serves. Each worker binds and plans a shard
   statement at its first kept run and reuses that plan while the values
   stay the same: 100 dashboards on 4 shards plan 4 times. *)
let test_gharchive_dashboard_plans_once () =
  let cfg =
    { Workloads.Gharchive.events = 120; days = 4; commits_per_event = 2;
      postgres_fraction = 0.3 }
  in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:4 () in
  Workloads.Gharchive.setup_schema cz;
  ignore (Workloads.Gharchive.load cz cfg);
  let workers = cz.Workloads.Db.cluster.Cluster.Topology.workers in
  let stats () =
    List.fold_left
      (fun (b, r, p) (w : Cluster.Topology.node) ->
        let st = Engine.Instance.template_plan_stats w.Cluster.Topology.instance in
        Engine.Executor.(b + st.builds, r + st.runs, p + st.planned_runs))
      (0, 0, 0) workers
  in
  let run () = (Workloads.Db.exec cz Workloads.Gharchive.dashboard_query).Engine.Instance.rows in
  let b0, r0, p0 = stats () in
  let first = run () in
  Alcotest.(check bool) "dashboard finds events" true (first <> []);
  for _ = 2 to 100 do
    if run () <> first then Alcotest.fail "a dashboard's rows changed"
  done;
  let b1, r1, p1 = stats () in
  (* a text is parsed at its first two sightings, a template from the third *)
  Alcotest.(check int) "kept runs" (98 * 4) (r1 - r0);
  Alcotest.(check int) "one plan kept per shard statement" 4 (b1 - b0);
  Alcotest.(check int) "one bound plan per shard statement" 4 (p1 - p0)

let test_gharchive_transformation () =
  let cfg =
    { Workloads.Gharchive.events = 100; days = 3; commits_per_event = 2;
      postgres_fraction = 0.1 }
  in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Gharchive.setup_schema cz;
  ignore (Workloads.Gharchive.load cz cfg);
  Workloads.Gharchive.create_rollup_table cz;
  let r = Workloads.Db.exec cz Workloads.Gharchive.transformation_query in
  Alcotest.(check int) "one rollup row per event" 100 r.Engine.Instance.affected;
  Alcotest.(check int) "commits table" 100 (one_int cz "SELECT count(*) FROM commits")

(* --- pgbench (fig 9 workload) --- *)

let test_pgbench_modes () =
  let cfg = { Workloads.Pgbench.rows = 50 } in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Pgbench.setup cz cfg;
  let rng = Random.State.make [| 2 |] in
  let crossed_same = ref 0 and crossed_diff = ref 0 in
  for _ = 1 to 30 do
    if Workloads.Pgbench.run_one cz cz.Workloads.Db.session cfg
         Workloads.Pgbench.Same_key rng
    then incr crossed_same
  done;
  for _ = 1 to 30 do
    if Workloads.Pgbench.run_one cz cz.Workloads.Db.session cfg
         Workloads.Pgbench.Different_keys rng
    then incr crossed_diff
  done;
  Alcotest.(check int) "same-key never crosses nodes" 0 !crossed_same;
  Alcotest.(check bool) "different keys often cross" true (!crossed_diff > 5);
  Alcotest.(check bool) "invariant" true (Workloads.Pgbench.balance_invariant_holds cz)

(* --- TPC-H --- *)

(* distributed sums add per-shard partials, so float results can differ in
   the last bits from the single-node summation order *)
let datum_approx a b =
  match a, b with
  | Datum.Float x, Datum.Float y ->
    Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Datum.equal a b

let rows_approx_equal r1 r2 =
  List.length r1 = List.length r2
  && List.for_all2
       (fun (a : Datum.t array) (b : Datum.t array) ->
         Array.length a = Array.length b
         && Array.for_all2 datum_approx a b)
       r1 r2

let test_tpch_results_match () =
  let cfg = { Workloads.Tpch.lineitem_rows = 400; distribute_part = false } in
  let pg = Workloads.Db.postgres () in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Tpch.setup pg cfg;
  Workloads.Tpch.setup cz cfg;
  List.iter2
    (fun (name, sql) (_, _) ->
      let rows_pg = (Workloads.Db.exec pg sql).Engine.Instance.rows in
      let rows_cz = (Workloads.Db.exec cz sql).Engine.Instance.rows in
      if not (rows_approx_equal rows_pg rows_cz) then
        Alcotest.fail (Printf.sprintf "%s differs between postgres and citus" name))
    (Workloads.Tpch.queries cfg) (Workloads.Tpch.queries cfg)

let test_tpch_unsupported_rejected_under_citus () =
  let cfg = { Workloads.Tpch.lineitem_rows = 200; distribute_part = false } in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Tpch.setup cz cfg;
  List.iter
    (fun (name, sql, _reason) ->
      match Workloads.Db.exec cz sql with
      | exception Engine.Instance.Session_error _ -> ()
      | exception Sqlfront.Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail (name ^ " should be unsupported under Citus"))
    Workloads.Tpch.unsupported_queries

let test_tpch_distributed_part_variant () =
  let cfg = { Workloads.Tpch.lineitem_rows = 300; distribute_part = true } in
  let pg = Workloads.Db.postgres () in
  let cz = Workloads.Db.citus ~workers:2 ~shard_count:8 () in
  Workloads.Tpch.setup pg cfg;
  Workloads.Tpch.setup cz cfg;
  (* the part joins now exercise the join-order planner; results must not
     change *)
  List.iter
    (fun name ->
      let _, sql =
        List.find (fun (n, _) -> String.equal n name) (Workloads.Tpch.queries cfg)
      in
      let rows_pg = (Workloads.Db.exec pg sql).Engine.Instance.rows in
      let rows_cz = (Workloads.Db.exec cz sql).Engine.Instance.rows in
      if not (rows_approx_equal rows_pg rows_cz) then
        Alcotest.fail (name ^ " differs"))
    [ "Q14-promo-effect"; "Q19-discounted-revenue" ]

let () =
  Alcotest.run "workloads"
    [
      ( "tpcc",
        [
          Alcotest.test_case "postgres" `Quick test_tpcc_on_postgres;
          Alcotest.test_case "citus matches postgres" `Quick
            test_tpcc_on_citus_matches_postgres;
          Alcotest.test_case "with delegation" `Quick test_tpcc_with_delegation;
          Alcotest.test_case "delivery" `Quick test_delivery_credits_customers;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "setup + ops" `Quick test_ycsb;
          Alcotest.test_case "mix" `Quick test_ycsb_mix_roughly_even;
        ] );
      ( "gharchive",
        [
          Alcotest.test_case "load + dashboard" `Quick
            test_gharchive_load_and_dashboard;
          Alcotest.test_case "transformation" `Quick test_gharchive_transformation;
          Alcotest.test_case "dashboard plans once per shard" `Quick
            test_gharchive_dashboard_plans_once;
        ] );
      ( "pgbench",
        [
          Alcotest.test_case "same vs different keys" `Quick test_pgbench_modes;
          Alcotest.test_case "mx invariant" `Quick test_mx_pgbench_invariant;
        ] );
      ( "tpch",
        [
          Alcotest.test_case "results match" `Quick test_tpch_results_match;
          Alcotest.test_case "unsupported rejected" `Quick
            test_tpch_unsupported_rejected_under_citus;
          Alcotest.test_case "distributed part" `Quick
            test_tpch_distributed_part_variant;
        ] );
    ]
