type config = { lineitem_rows : int; distribute_part : bool }

let nations =
  [| "FRANCE"; "GERMANY"; "JAPAN"; "BRAZIL"; "KENYA"; "PERU"; "CHINA"; "INDIA" |]

let regions = [| "EUROPE"; "ASIA"; "AMERICA"; "AFRICA" |]

let segments = [| "BUILDING"; "AUTOMOBILE"; "MACHINERY"; "HOUSEHOLD"; "FURNITURE" |]

let ship_modes = [| "MAIL"; "SHIP"; "RAIL"; "TRUCK"; "AIR" |]

let part_types = [| "PROMO BRASS"; "STANDARD COPPER"; "ECONOMY TIN"; "PROMO STEEL" |]

let setup_schema db cfg =
  let ddl =
    [
      "CREATE TABLE region (r_regionkey bigint PRIMARY KEY, r_name text)";
      "CREATE TABLE nation (n_nationkey bigint PRIMARY KEY, n_name text, n_regionkey bigint)";
      "CREATE TABLE supplier (s_suppkey bigint PRIMARY KEY, s_name text, s_nationkey bigint)";
      "CREATE TABLE customer (c_custkey bigint PRIMARY KEY, c_name text, \
       c_mktsegment text, c_nationkey bigint)";
      "CREATE TABLE part (p_partkey bigint PRIMARY KEY, p_name text, p_type text, p_size bigint)";
      "CREATE TABLE orders (o_orderkey bigint PRIMARY KEY, o_custkey bigint, \
       o_orderstatus text, o_totalprice double precision, o_orderdate bigint, \
       o_orderpriority text)";
      "CREATE TABLE lineitem (l_orderkey bigint, l_linenumber bigint, \
       l_partkey bigint, l_suppkey bigint, l_quantity bigint, \
       l_extendedprice double precision, l_discount double precision, \
       l_tax double precision, l_returnflag text, l_linestatus text, \
       l_shipdate bigint, l_shipmode text, \
       PRIMARY KEY (l_orderkey, l_linenumber))";
    ]
  in
  List.iter (fun sql -> ignore (Db.exec db sql)) ddl;
  Db.reference db ~table:"region";
  Db.reference db ~table:"nation";
  Db.reference db ~table:"supplier";
  Db.reference db ~table:"customer";
  if cfg.distribute_part then
    Db.distribute db ~table:"part" ~column:"p_partkey" ()
  else Db.reference db ~table:"part";
  Db.distribute db ~table:"orders" ~column:"o_orderkey" ();
  Db.distribute db ~table:"lineitem" ~column:"l_orderkey" ~colocate_with:"orders" ()

let load db cfg =
  let rng = Random.State.make [| 19 |] in
  let s = db.Db.session in
  let copy table lines =
    let rec batches = function
      | [] -> ()
      | lines ->
        let batch = List.filteri (fun i _ -> i < 500) lines in
        let rest = List.filteri (fun i _ -> i >= 500) lines in
        ignore (Engine.Instance.copy_in s ~table ~columns:None batch);
        batches rest
    in
    batches lines
  in
  let n_orders = max 1 (cfg.lineitem_rows / 4) in
  let n_parts = max 1 (cfg.lineitem_rows / 20) in
  let n_customers = max 1 (cfg.lineitem_rows / 30) in
  let n_suppliers = max 1 (cfg.lineitem_rows / 100) in
  copy "region"
    (List.init (Array.length regions) (fun i ->
         Printf.sprintf "%d\t%s" i regions.(i)));
  copy "nation"
    (List.init (Array.length nations) (fun i ->
         Printf.sprintf "%d\t%s\t%d" i nations.(i) (i mod Array.length regions)));
  copy "supplier"
    (List.init n_suppliers (fun i ->
         Printf.sprintf "%d\tsupp%d\t%d" (i + 1) (i + 1)
           (Random.State.int rng (Array.length nations))));
  copy "customer"
    (List.init n_customers (fun i ->
         Printf.sprintf "%d\tcust%d\t%s\t%d" (i + 1) (i + 1)
           segments.(Random.State.int rng (Array.length segments))
           (Random.State.int rng (Array.length nations))));
  copy "part"
    (List.init n_parts (fun i ->
         Printf.sprintf "%d\tpart%d\t%s\t%d" (i + 1) (i + 1)
           part_types.(Random.State.int rng (Array.length part_types))
           (1 + Random.State.int rng 50)));
  copy "orders"
    (List.init n_orders (fun i ->
         Printf.sprintf "%d\t%d\t%s\t%f\t%d\t%s" (i + 1)
           (1 + Random.State.int rng n_customers)
           (if Random.State.bool rng then "O" else "F")
           (1000.0 +. Random.State.float rng 100000.0)
           (Random.State.int rng 2400)
           (if Random.State.int rng 5 = 0 then "1-URGENT" else "3-MEDIUM")));
  copy "lineitem"
    (List.init cfg.lineitem_rows (fun i ->
         let orderkey = 1 + (i mod n_orders) in
         Printf.sprintf "%d\t%d\t%d\t%d\t%d\t%f\t%f\t%f\t%s\t%s\t%d\t%s" orderkey
           (1 + (i / n_orders))
           (1 + Random.State.int rng n_parts)
           (1 + Random.State.int rng n_suppliers)
           (1 + Random.State.int rng 50)
           (100.0 +. Random.State.float rng 10000.0)
           (Random.State.float rng 0.1)
           (Random.State.float rng 0.08)
           (if Random.State.int rng 4 = 0 then "R" else "N")
           (if Random.State.bool rng then "O" else "F")
           (Random.State.int rng 2555)
           ship_modes.(Random.State.int rng (Array.length ship_modes))))

let setup db cfg =
  setup_schema db cfg;
  load db cfg

let queries cfg =
  let base =
    [
      ( "Q1-pricing-summary",
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), \
         sum(l_extendedprice), sum(l_extendedprice * (1 - l_discount)), \
         avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) \
         FROM lineitem WHERE l_shipdate <= 2520 \
         GROUP BY l_returnflag, l_linestatus \
         ORDER BY l_returnflag, l_linestatus" );
      ( "Q3-shipping-priority",
        "SELECT lineitem.l_orderkey, \
         sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) AS revenue, \
         orders.o_orderdate \
         FROM customer JOIN orders ON customer.c_custkey = orders.o_custkey \
         JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey \
         WHERE customer.c_mktsegment = 'BUILDING' AND orders.o_orderdate < 1200 \
         AND lineitem.l_shipdate > 1200 \
         GROUP BY lineitem.l_orderkey, orders.o_orderdate \
         ORDER BY revenue DESC, lineitem.l_orderkey ASC LIMIT 10" );
      ( "Q5-local-supplier-volume",
        "SELECT nation.n_name, \
         sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) AS revenue \
         FROM orders JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey \
         JOIN customer ON customer.c_custkey = orders.o_custkey \
         JOIN supplier ON supplier.s_suppkey = lineitem.l_suppkey \
         JOIN nation ON nation.n_nationkey = supplier.s_nationkey \
         JOIN region ON region.r_regionkey = nation.n_regionkey \
         WHERE region.r_name = 'EUROPE' AND orders.o_orderdate >= 400 \
         AND orders.o_orderdate < 1400 \
         GROUP BY nation.n_name ORDER BY revenue DESC" );
      ( "Q6-revenue-forecast",
        "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
         WHERE l_shipdate >= 400 AND l_shipdate < 800 \
         AND l_discount BETWEEN 0.02 AND 0.09 AND l_quantity < 24" );
      ( "Q7-volume-shipping",
        "SELECT nation.n_name, sum(lineitem.l_extendedprice) \
         FROM lineitem JOIN supplier ON supplier.s_suppkey = lineitem.l_suppkey \
         JOIN nation ON nation.n_nationkey = supplier.s_nationkey \
         WHERE lineitem.l_shipdate BETWEEN 800 AND 1600 \
         GROUP BY nation.n_name ORDER BY nation.n_name" );
      ( "Q10-returned-items",
        "SELECT customer.c_custkey, customer.c_name, \
         sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) AS revenue \
         FROM customer JOIN orders ON customer.c_custkey = orders.o_custkey \
         JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey \
         WHERE lineitem.l_returnflag = 'R' AND orders.o_orderdate >= 600 \
         AND orders.o_orderdate < 1000 \
         GROUP BY customer.c_custkey, customer.c_name \
         ORDER BY revenue DESC, customer.c_custkey ASC LIMIT 20" );
      ( "Q12-shipmode-priority",
        "SELECT lineitem.l_shipmode, \
         sum(CASE WHEN orders.o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) AS high, \
         sum(CASE WHEN orders.o_orderpriority = '1-URGENT' THEN 0 ELSE 1 END) AS low \
         FROM orders JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey \
         WHERE lineitem.l_shipmode IN ('MAIL', 'SHIP') \
         AND lineitem.l_shipdate BETWEEN 1000 AND 1365 \
         GROUP BY lineitem.l_shipmode ORDER BY lineitem.l_shipmode" );
      ( "Q14-promo-effect",
        "SELECT 100.0 * sum(CASE WHEN part.p_type LIKE 'PROMO%' \
         THEN lineitem.l_extendedprice * (1 - lineitem.l_discount) ELSE 0.0 END) / \
         sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) \
         FROM lineitem JOIN part ON part.p_partkey = lineitem.l_partkey \
         WHERE lineitem.l_shipdate >= 1200 AND lineitem.l_shipdate < 1260" );
      ( "Q18-large-volume",
        "SELECT orders.o_orderkey, orders.o_totalprice, sum(lineitem.l_quantity) \
         FROM orders JOIN lineitem ON lineitem.l_orderkey = orders.o_orderkey \
         GROUP BY orders.o_orderkey, orders.o_totalprice \
         ORDER BY orders.o_totalprice DESC, orders.o_orderkey ASC LIMIT 10" );
      ( "Q19-discounted-revenue",
        "SELECT sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) \
         FROM lineitem JOIN part ON part.p_partkey = lineitem.l_partkey \
         WHERE part.p_size BETWEEN 1 AND 15 AND lineitem.l_quantity < 30 \
         AND lineitem.l_shipmode IN ('AIR', 'TRUCK')" );
      ( "Q9-product-type-profit",
        "SELECT nation.n_name, part.p_type, \
         sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) AS profit \
         FROM lineitem JOIN part ON part.p_partkey = lineitem.l_partkey \
         JOIN supplier ON supplier.s_suppkey = lineitem.l_suppkey \
         JOIN nation ON nation.n_nationkey = supplier.s_nationkey \
         WHERE part.p_type LIKE 'PROMO%' \
         GROUP BY nation.n_name, part.p_type \
         ORDER BY nation.n_name, part.p_type" );
      ( "Q11-important-stock",
        "SELECT part.p_type, count(*), avg(part.p_size) \
         FROM part WHERE part.p_size > 10 \
         GROUP BY part.p_type HAVING count(*) > 2 ORDER BY part.p_type" );
      ( "Q16-urgent-part-types",
        "SELECT part.p_type, count(*) \
         FROM lineitem JOIN part ON part.p_partkey = lineitem.l_partkey \
         JOIN orders ON orders.o_orderkey = lineitem.l_orderkey \
         WHERE orders.o_orderpriority = '1-URGENT' \
         GROUP BY part.p_type ORDER BY part.p_type" );
      ( "Q20-promo-suppliers",
        "SELECT supplier.s_name, sum(lineitem.l_quantity) \
         FROM lineitem JOIN supplier ON supplier.s_suppkey = lineitem.l_suppkey \
         WHERE lineitem.l_partkey IN \
         (SELECT p_partkey FROM part WHERE p_type LIKE 'PROMO%') \
         GROUP BY supplier.s_name ORDER BY supplier.s_name" );
      ( "Q22-acquisition-candidates",
        "SELECT customer.c_mktsegment, count(*), avg(orders.o_totalprice) \
         FROM customer JOIN orders ON customer.c_custkey = orders.o_custkey \
         WHERE orders.o_totalprice > 50000.0 \
         GROUP BY customer.c_mktsegment ORDER BY customer.c_mktsegment" );
      ( "Q-top-days",
        "SELECT lineitem.l_shipdate, count(*), sum(lineitem.l_quantity) \
         FROM lineitem WHERE lineitem.l_returnflag = 'N' \
         GROUP BY lineitem.l_shipdate \
         ORDER BY count(*) DESC, lineitem.l_shipdate ASC LIMIT 5" );
      ( "Q-order-status-mix",
        "SELECT orders.o_orderstatus, count(*), avg(orders.o_totalprice) \
         FROM orders GROUP BY orders.o_orderstatus ORDER BY orders.o_orderstatus" );
    ]
  in
  ignore cfg;
  base

(* The paper ran the 18 of 22 TPC-H queries Citus supported; these shapes
   are the ones this reproduction cannot distribute, with the reason. *)
let unsupported_queries =
  [
    ( "Q15-top-supplier (revenue CTE)",
      "WITH revenue AS (SELECT l_suppkey, sum(l_extendedprice) AS total \
       FROM lineitem GROUP BY l_suppkey) \
       SELECT supplier.s_name, revenue.total FROM supplier \
       JOIN revenue ON revenue.l_suppkey = supplier.s_suppkey \
       ORDER BY revenue.total DESC LIMIT 1",
      "subquery grouped off the distribution column needs a merge step" );
    ( "Q17-small-quantity (correlated scalar subquery)",
      "SELECT sum(l1.l_extendedprice) FROM lineitem AS l1 \
       WHERE l1.l_quantity < (SELECT avg(l2.l_quantity) FROM lineitem AS l2 \
       WHERE l2.l_partkey = l1.l_partkey)",
      "correlated subqueries on distributed tables are unsupported" );
    ( "Q21-waiting-suppliers (EXISTS over distributed self-join)",
      "SELECT count(*) FROM lineitem AS l1 WHERE EXISTS \
       (SELECT 1 FROM lineitem AS l2 WHERE l2.l_orderkey = l1.l_orderkey \
        AND l2.l_suppkey <> l1.l_suppkey)",
      "subqueries on distributed tables inside expressions are unsupported" );
    ( "Q13-customer-distribution (LEFT JOIN from a reference table)",
      "SELECT c_count, count(*) FROM (SELECT customer.c_custkey, \
       count(orders.o_orderkey) AS c_count FROM customer \
       LEFT JOIN orders ON customer.c_custkey = orders.o_custkey \
       GROUP BY customer.c_custkey) AS sub GROUP BY c_count ORDER BY c_count",
      "outer joins that preserve the reference side across all shards need \
       a merge step in the subquery" );
  ]
