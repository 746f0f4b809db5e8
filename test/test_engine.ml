(* End-to-end single-node engine tests: SQL in, rows out. *)

open Engine

let fresh () =
  let inst = Instance.create ~name:"pg" () in
  (inst, Instance.connect inst)

let exec s sql = Instance.exec s sql

let rows s sql = (exec s sql).Instance.rows

let one_int s sql =
  match rows s sql with
  | [ [| Datum.Int i |] ] -> i
  | r ->
    Alcotest.fail
      (Printf.sprintf "expected one int from %s, got %d rows" sql
         (List.length r))

let check_int s msg expected sql = Alcotest.(check int) msg expected (one_int s sql)

let setup_accounts s =
  ignore (exec s "CREATE TABLE accounts (id bigint PRIMARY KEY, owner text, balance bigint)");
  ignore
    (exec s
       "INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 200), (3, 'carol', 300)")

(* --- basic CRUD --- *)

let test_create_insert_select () =
  let _, s = fresh () in
  setup_accounts s;
  check_int s "count" 3 "SELECT count(*) FROM accounts";
  (match rows s "SELECT owner FROM accounts WHERE id = 2" with
   | [ [| Datum.Text "bob" |] ] -> ()
   | _ -> Alcotest.fail "lookup failed")

let test_update () =
  let _, s = fresh () in
  setup_accounts s;
  let r = exec s "UPDATE accounts SET balance = balance + 10 WHERE id = 1" in
  Alcotest.(check int) "one row" 1 r.Instance.affected;
  check_int s "updated" 110 "SELECT balance FROM accounts WHERE id = 1"

let test_delete () =
  let _, s = fresh () in
  setup_accounts s;
  ignore (exec s "DELETE FROM accounts WHERE balance > 150");
  check_int s "left" 1 "SELECT count(*) FROM accounts"

let test_insert_defaults_and_nulls () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint, b text DEFAULT 'dflt', c bigint)");
  ignore (exec s "INSERT INTO t (a) VALUES (1)");
  match rows s "SELECT a, b, c FROM t" with
  | [ [| Datum.Int 1; Datum.Text "dflt"; Datum.Null |] ] -> ()
  | _ -> Alcotest.fail "defaults/null failed"

let test_pk_violation () =
  let _, s = fresh () in
  setup_accounts s;
  (match exec s "INSERT INTO accounts VALUES (1, 'dup', 0)" with
   | exception Instance.Session_error m ->
     Alcotest.(check bool) "mentions pk" true
       (String.length m > 0)
   | _ -> Alcotest.fail "expected pk violation");
  (* ON CONFLICT DO NOTHING swallows it *)
  let r = exec s "INSERT INTO accounts VALUES (1, 'dup', 0) ON CONFLICT DO NOTHING" in
  Alcotest.(check int) "no rows" 0 r.Instance.affected

let test_not_null () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint NOT NULL)");
  match exec s "INSERT INTO t VALUES (NULL)" with
  | exception Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "expected not-null violation"

(* --- expressions / filters --- *)

let test_where_logic () =
  let _, s = fresh () in
  setup_accounts s;
  check_int s "or" 2 "SELECT count(*) FROM accounts WHERE id = 1 OR id = 3";
  check_int s "between" 2 "SELECT count(*) FROM accounts WHERE balance BETWEEN 100 AND 200";
  check_int s "in" 2 "SELECT count(*) FROM accounts WHERE owner IN ('alice', 'bob')";
  check_int s "like" 1 "SELECT count(*) FROM accounts WHERE owner LIKE 'al%'";
  check_int s "null cmp" 0 "SELECT count(*) FROM accounts WHERE balance = NULL"

(* A quoted literal compared with a number reads as that number's type;
   nothing else is coerced. A sequential scan and a B-tree probe agree. *)
let test_quoted_literal_index_or_not () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint, v text)");
  ignore (exec s "INSERT INTO t VALUES (5, '5'), (6, 'six')");
  let check_all path =
    List.iter
      (fun (expected, where) ->
        check_int s
          (Printf.sprintf "%s: WHERE %s" path where)
          expected
          ("SELECT count(*) FROM t WHERE " ^ where))
      [
        (1, "k = '5'");
        (1, "'5' = k");
        (1, "k = ' 5'");
        (0, "k = '5.0'");
        (1, "k < '6'");
        (0, "v = 5");
        (1, "v = '5'");
      ]
  in
  check_all "seq scan";
  ignore (exec s "CREATE INDEX t_k ON t (k)");
  ignore (exec s "CREATE INDEX t_v ON t (v)");
  check_all "index"

let test_case_and_arith () =
  let _, s = fresh () in
  setup_accounts s;
  check_int s "case" 1
    "SELECT count(*) FROM accounts WHERE CASE WHEN balance > 250 THEN TRUE ELSE FALSE END";
  check_int s "arith" 200 "SELECT balance * 2 FROM accounts WHERE id = 1"

(* --- aggregates / grouping --- *)

let test_aggregates () =
  let _, s = fresh () in
  setup_accounts s;
  check_int s "sum" 600 "SELECT sum(balance) FROM accounts";
  check_int s "min" 100 "SELECT min(balance) FROM accounts";
  check_int s "max" 300 "SELECT max(balance) FROM accounts";
  (match rows s "SELECT avg(balance) FROM accounts" with
   | [ [| Datum.Float f |] ] -> Alcotest.(check (float 0.001)) "avg" 200.0 f
   | _ -> Alcotest.fail "avg failed")

let test_count_empty () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE empty_t (a bigint)");
  check_int s "count empty" 0 "SELECT count(*) FROM empty_t";
  match rows s "SELECT sum(a) FROM empty_t" with
  | [ [| Datum.Null |] ] -> ()
  | _ -> Alcotest.fail "sum of empty should be NULL"

let test_group_by () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE orders (cust text, amount bigint)");
  ignore
    (exec s
       "INSERT INTO orders VALUES ('a', 10), ('a', 20), ('b', 5), ('b', 5), ('c', 1)");
  let r =
    rows s
      "SELECT cust, sum(amount), count(*) FROM orders GROUP BY cust ORDER BY cust"
  in
  match r with
  | [
   [| Datum.Text "a"; Datum.Int 30; Datum.Int 2 |];
   [| Datum.Text "b"; Datum.Int 10; Datum.Int 2 |];
   [| Datum.Text "c"; Datum.Int 1; Datum.Int 1 |];
  ] ->
    ()
  | _ -> Alcotest.fail "group by failed"

let test_group_by_ordinal_and_having () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE orders (cust text, amount bigint)");
  ignore
    (exec s "INSERT INTO orders VALUES ('a', 10), ('a', 20), ('b', 5)");
  let r =
    rows s
      "SELECT cust, sum(amount) AS total FROM orders GROUP BY 1 HAVING sum(amount) > 10 ORDER BY 1"
  in
  match r with
  | [ [| Datum.Text "a"; Datum.Int 30 |] ] -> ()
  | _ -> Alcotest.fail "ordinal group by / having failed"

let test_distinct_agg () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE e (u bigint)");
  ignore (exec s "INSERT INTO e VALUES (1), (1), (2), (3), (3)");
  check_int s "distinct count" 3 "SELECT count(DISTINCT u) FROM e"

let test_distinct_select () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE e (u bigint)");
  ignore (exec s "INSERT INTO e VALUES (1), (1), (2)");
  Alcotest.(check int) "distinct rows" 2
    (List.length (rows s "SELECT DISTINCT u FROM e"))

(* --- order / limit --- *)

let test_order_limit_offset () =
  let _, s = fresh () in
  setup_accounts s;
  (match rows s "SELECT id FROM accounts ORDER BY balance DESC LIMIT 1" with
   | [ [| Datum.Int 3 |] ] -> ()
   | _ -> Alcotest.fail "order desc limit");
  match rows s "SELECT id FROM accounts ORDER BY id ASC LIMIT 1 OFFSET 1" with
  | [ [| Datum.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "offset"

(* --- joins --- *)

let setup_join s =
  ignore (exec s "CREATE TABLE dept (id bigint, dname text)");
  ignore (exec s "CREATE TABLE emp (id bigint, dept_id bigint, ename text)");
  ignore (exec s "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')");
  ignore
    (exec s
       "INSERT INTO emp VALUES (1, 1, 'ann'), (2, 1, 'ben'), (3, 2, 'cat'), (4, NULL, 'dan')")

let test_inner_join () =
  let _, s = fresh () in
  setup_join s;
  check_int s "join rows" 3
    "SELECT count(*) FROM emp JOIN dept ON emp.dept_id = dept.id";
  check_int s "eng employees" 2
    "SELECT count(*) FROM emp JOIN dept ON emp.dept_id = dept.id WHERE dept.dname = 'eng'"

let test_left_join () =
  let _, s = fresh () in
  setup_join s;
  check_int s "left join keeps dan" 4
    "SELECT count(*) FROM emp LEFT JOIN dept ON emp.dept_id = dept.id";
  check_int s "null extended" 1
    "SELECT count(*) FROM emp LEFT JOIN dept ON emp.dept_id = dept.id WHERE dept.dname IS NULL"

(* A conjunct on the nullable side of a LEFT JOIN filters the joined
   rows, after null extension. *)
let test_left_join_where_right () =
  let _, s = fresh () in
  setup_join s;
  check_int s "right column" 2
    "SELECT count(*) FROM emp LEFT JOIN dept ON emp.dept_id = dept.id WHERE dept.dname = 'eng'";
  check_int s "null extended or sales" 2
    "SELECT count(*) FROM emp LEFT JOIN dept ON emp.dept_id = dept.id WHERE dept.id IS NULL OR dept.dname = 'sales'";
  check_int s "both sides" 1
    "SELECT count(*) FROM emp LEFT JOIN dept ON emp.dept_id = dept.id WHERE emp.ename <> 'ann' AND dept.dname = 'eng'"

(* Each WHERE conjunct is evaluated once per row: a volatile one applied
   at the scan and again after the joins would keep a quarter of the
   rows, not a half. *)
let test_where_evaluated_once () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  ignore (exec s "CREATE TABLE u (a bigint)");
  let lines = List.init 10_000 string_of_int in
  ignore (Instance.copy_in s ~table:"t" ~columns:None lines);
  ignore (Instance.copy_in s ~table:"u" ~columns:None lines);
  let in_half msg sql =
    let n = one_int s sql in
    if n < 4_500 || n > 5_500 then Alcotest.fail (Printf.sprintf "%s: %d of 10000" msg n)
  in
  in_half "scan" "SELECT count(*) FROM t WHERE random() < 0.5";
  in_half "join" "SELECT count(*) FROM t JOIN u ON t.a = u.a WHERE random() < 0.5";
  in_half "left join" "SELECT count(*) FROM t LEFT JOIN u ON t.a = u.a WHERE random() < 0.5"

let test_cross_join () =
  let _, s = fresh () in
  setup_join s;
  check_int s "cross" 12 "SELECT count(*) FROM emp CROSS JOIN dept"

let test_comma_join_with_where () =
  let _, s = fresh () in
  setup_join s;
  check_int s "comma join" 3
    "SELECT count(*) FROM emp, dept WHERE emp.dept_id = dept.id"

let test_join_aggregate () =
  let _, s = fresh () in
  setup_join s;
  let r =
    rows s
      "SELECT dept.dname, count(*) FROM emp JOIN dept ON emp.dept_id = dept.id \
       GROUP BY dept.dname ORDER BY dept.dname"
  in
  match r with
  | [ [| Datum.Text "eng"; Datum.Int 2 |]; [| Datum.Text "sales"; Datum.Int 1 |] ]
    -> ()
  | _ -> Alcotest.fail "join aggregate failed"

(* --- subqueries --- *)

let test_subquery_in_from () =
  let _, s = fresh () in
  setup_accounts s;
  check_int s "nested" 2
    "SELECT count(*) FROM (SELECT balance FROM accounts WHERE balance > 100) AS rich"

let test_nested_aggregation_venicedb_shape () =
  (* the RQV dashboard query shape: avg of per-device averages *)
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE reports (deviceid bigint, metric bigint)");
  ignore
    (exec s
       "INSERT INTO reports VALUES (1, 10), (1, 20), (2, 100), (2, 200), (3, 0)");
  match
    rows s
      "SELECT avg(device_avg) FROM (SELECT deviceid, avg(metric) AS device_avg \
       FROM reports GROUP BY deviceid) AS subq"
  with
  | [ [| Datum.Float f |] ] -> Alcotest.(check (float 0.001)) "avg of avgs" 55.0 f
  | _ -> Alcotest.fail "nested agg failed"

let test_scalar_subquery () =
  let _, s = fresh () in
  setup_accounts s;
  check_int s "scalar" 1
    "SELECT count(*) FROM accounts WHERE balance = (SELECT max(balance) FROM accounts)"

let test_in_subquery () =
  let _, s = fresh () in
  setup_join s;
  check_int s "in subquery" 3
    "SELECT count(*) FROM emp WHERE dept_id IN (SELECT id FROM dept WHERE id < 3)"

(* --- indexes --- *)

let test_btree_index_used () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE big (k bigint PRIMARY KEY, v text)");
  ignore (exec s "BEGIN");
  for i = 1 to 500 do
    ignore (exec s (Printf.sprintf "INSERT INTO big VALUES (%d, 'v%d')" i i))
  done;
  ignore (exec s "COMMIT");
  let before = Meter.read (Instance.meter inst) in
  check_int s "pk lookup" 1 "SELECT count(*) FROM big WHERE k = 250";
  let after = Meter.read (Instance.meter inst) in
  let d = Meter.diff ~after ~before in
  Alcotest.(check bool) "few rows scanned (index used)" true
    (d.Meter.rows_scanned < 10);
  Alcotest.(check bool) "probed" true (d.Meter.index_probes >= 1)

(* The weighted total as the meter priced it before [units_since]: the
   reference both prices must match bit for bit, since the fold order
   of the products decides the float that [model_ops_per_s] reads. *)
let reference_cpu_units (s : Meter.snapshot) =
  (0.15 *. float_of_int s.rows_scanned)
  +. (1.0 *. float_of_int s.rows_written)
  +. (0.25 *. float_of_int s.index_probes)
  +. (0.5 *. float_of_int s.index_updates)
  +. (0.1 *. float_of_int s.rows_sorted)
  +. (0.15 *. float_of_int s.rows_aggregated)
  +. (20.0 *. float_of_int s.statements)
  +. (2.0 *. float_of_int s.light_statements)
  +. (3.0 *. float_of_int s.routed_statements)
  +. (1.0 *. float_of_int s.bound_executes)
  +. (5.0 *. float_of_int s.twopc_statements)
  +. (1.5 *. float_of_int s.copy_rows)
  +. (Meter.merge_row_weight *. float_of_int s.merge_rows)

let test_units_since_is_total_of_diff () =
  let rng = Random.State.make [| 7 |] in
  let m = Meter.create () in
  let adds =
    [ Meter.add_scanned m; Meter.add_written m; Meter.add_probe m; Meter.add_index_update m;
      Meter.add_sorted m; Meter.add_aggregated m; (fun _ -> Meter.add_statement m);
      (fun _ -> Meter.add_light_statement m); (fun _ -> Meter.add_routed_statement m);
      (fun _ -> Meter.add_bound_execute m); (fun _ -> Meter.add_twopc_statement m);
      Meter.add_copy_rows m; Meter.add_merge_rows m ]
  in
  for i = 1 to 300 do
    let before = Meter.read m in
    List.iter
      (fun add ->
        (* small and large counts, so that a sum in another order rounds apart *)
        let bound = if Random.State.bool rng then 7 else 1 lsl 29 in
        for _ = 1 to Random.State.int rng 3 do add (Random.State.int rng bound) done)
      adds;
    let d = Meter.diff ~after:(Meter.read m) ~before in
    let bits = Int64.bits_of_float in
    Alcotest.(check int64) (Printf.sprintf "since, round %d" i) (bits (reference_cpu_units d))
      (bits (Meter.units_since m before));
    Alcotest.(check int64) (Printf.sprintf "total, round %d" i) (bits (reference_cpu_units d))
      (bits (Meter.total_cpu_units d))
  done

let test_secondary_index () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint, b bigint)");
  ignore (exec s "BEGIN");
  for i = 1 to 300 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 10)))
  done;
  ignore (exec s "COMMIT");
  ignore (exec s "CREATE INDEX t_b ON t USING BTREE (b)");
  let before = Meter.read (Instance.meter inst) in
  check_int s "matches" 30 "SELECT count(*) FROM t WHERE b = 3";
  let after = Meter.read (Instance.meter inst) in
  let d = Meter.diff ~after ~before in
  Alcotest.(check bool) "scan bounded by index" true (d.Meter.rows_scanned <= 40)

let test_gin_index_query () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE msgs (id bigint PRIMARY KEY, body text)");
  ignore
    (exec s
       "INSERT INTO msgs VALUES (1, 'fix postgres planner'), (2, 'docs update'), (3, 'POSTGRES rocks')");
  ignore (exec s "CREATE INDEX msgs_trgm ON msgs USING GIN ((body) gin_trgm_ops)");
  check_int s "ilike via gin" 2
    "SELECT count(*) FROM msgs WHERE body ILIKE '%postgres%'"

(* Each [%]-separated segment is trigrammed on its own: no trigram may
   span a wildcard, and a pattern with no segment long enough falls back
   to a seq scan. Every count must match the seq scan's. *)
let test_gin_multi_segment_like () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE msgs (id bigint PRIMARY KEY, body text)");
  ignore
    (exec s "INSERT INTO msgs VALUES (1, 'post and gres'), (2, 'postgres'), (3, 'nothing')");
  let patterns = [ ("%post%gres%", 2); ("post%", 2); ("%ab%no%", 0); ("%no%ing", 1) ] in
  let check () =
    List.iter
      (fun (p, n) ->
        check_int s p n (Printf.sprintf "SELECT count(*) FROM msgs WHERE body ILIKE '%s'" p))
      patterns
  in
  check ();
  ignore (exec s "CREATE INDEX msgs_trgm ON msgs USING GIN ((body) gin_trgm_ops)");
  check ()

(* GIN fast update: rows added since the last cleanup sit in the
   index's pending list until a maintenance tick merges them. *)
let gin_of inst table =
  List.find_map
    (fun (idx : Catalog.index) ->
      match idx.kind with Catalog.Gin_index { gin; _ } -> Some gin | Catalog.Btree_index _ -> None)
    (Catalog.find_table (Instance.catalog inst) table).indexes
  |> Option.get

(* the primary-key B-tree: CREATE TABLE makes it the first index *)
let pk_of inst table =
  List.find_map
    (fun (idx : Catalog.index) ->
      match idx.kind with Catalog.Btree_index { tree; _ } -> Some tree | Catalog.Gin_index _ -> None)
    (Catalog.find_table (Instance.catalog inst) table).indexes
  |> Option.get

let setup_gin_msgs s =
  ignore (exec s "CREATE TABLE msgs (id bigint PRIMARY KEY, body text)");
  ignore (exec s "CREATE INDEX msgs_trgm ON msgs USING GIN ((body) gin_trgm_ops)");
  ignore
    (exec s
       "INSERT INTO msgs VALUES (1, 'fix postgres planner'), (2, 'docs update'), (3, 'POSTGRES rocks')")

let test_gin_pending_rows_found () =
  let inst, s = fresh () in
  setup_gin_msgs s;
  let q = "SELECT count(*) FROM msgs WHERE body ILIKE '%postgres%'" in
  check_int s "pending rows" 2 q;
  Instance.maintenance_tick inst;
  check_int s "merged rows" 2 q;
  ignore (exec s "INSERT INTO msgs VALUES (4, 'postgres again')");
  check_int s "merged and pending rows" 3 q

let test_gin_pending_row_vacuumed () =
  let inst, s = fresh () in
  setup_gin_msgs s;
  ignore (exec s "DELETE FROM msgs WHERE id = 1");
  ignore (exec s "VACUUM msgs");
  (* the freed slot is reused by a row the pattern does not match *)
  ignore (exec s "INSERT INTO msgs VALUES (5, 'unrelated text')");
  (match Storage.Gin.candidates (gin_of inst "msgs") "postgres" with
   | Some [ _ ] -> ()
   | Some l -> Alcotest.fail (Printf.sprintf "%d candidates, want 1" (List.length l))
   | None -> Alcotest.fail "pattern long enough");
  check_int s "deleted row gone" 1 "SELECT count(*) FROM msgs WHERE body ILIKE '%postgres%'"

let test_gin_pending_survives_restart () =
  let inst, s = fresh () in
  setup_gin_msgs s;
  Instance.restart inst;
  let s = Instance.connect inst in
  check_int s "after restart" 2 "SELECT count(*) FROM msgs WHERE body ILIKE '%postgres%'";
  Alcotest.(check bool) "served by the index" true
    (Storage.Gin.candidates (gin_of inst "msgs") "postgres" <> Some [])

(* --- JSON --- *)

let test_jsonb_roundtrip () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE events (id bigint, data jsonb)");
  ignore
    (exec s
       {|INSERT INTO events VALUES (1, '{"type": "push", "size": 3}'), (2, '{"type": "fork", "size": 1}')|});
  check_int s "json filter" 1
    "SELECT count(*) FROM events WHERE data->>'type' = 'push'";
  check_int s "json int" 3
    "SELECT (data->>'size')::bigint FROM events WHERE id = 1"

let test_jsonb_path_and_array_length () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE events (id bigint, data jsonb)");
  ignore
    (exec s
       {|INSERT INTO events VALUES (1, '{"payload": {"commits": [{"message": "fix pg"}, {"message": "feat"}]}}')|});
  check_int s "array length" 2
    "SELECT jsonb_array_length(data->'payload'->'commits') FROM events";
  match
    rows s
      {|SELECT jsonb_path_query_array(data, '$.payload.commits[*].message')::text FROM events|}
  with
  | [ [| Datum.Text t |] ] ->
    Alcotest.(check bool) "contains fix pg" true
      (Expr_eval.like_match ~pattern:"%fix pg%" ~ci:false t)
  | _ -> Alcotest.fail "path query failed"

(* A constant path is split once at compile time; a path read from a
   column is split per row. Both give the same arrays, NULLs and
   numeric-key lookups. *)
let test_jsonb_path_const_matches_column () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE docs (id bigint, data jsonb, p text)");
  ignore
    (exec s
       {|INSERT INTO docs VALUES
         (1, '{"a": {"0": "key"}, "b": [1, 2]}', '$.a.0'),
         (2, '{"b": [{"x": 5}, {"x": 6}]}', '$.b[*].x'),
         (3, '{"b": [7, 8]}', '$.b[1]'),
         (4, '{"b": [7, 8]}', '$.b.x'),
         (5, NULL, '$.b')|});
  let paths = [ "$.a.0"; "$.b[*].x"; "$.b[1]"; "$.b.x"; "$.b" ] in
  List.iteri
    (fun i path ->
      let id = i + 1 in
      let by_const =
        rows s
          (Printf.sprintf
             "SELECT jsonb_path_query_array(data, '%s')::text FROM docs WHERE id = %d"
             path id)
      and by_column =
        rows s
          (Printf.sprintf
             "SELECT jsonb_path_query_array(data, p)::text FROM docs WHERE id = %d" id)
      in
      Alcotest.(check (list (array string)))
        path
        (List.map (Array.map Datum.to_display) by_column)
        (List.map (Array.map Datum.to_display) by_const))
    paths;
  match
    rows s
      "SELECT jsonb_path_query_array(data, '$.a.0')::text, \
       jsonb_path_query_array(data, '$.b[1]')::text FROM docs WHERE id < 4 ORDER BY id"
  with
  | [ [| a1; b1 |]; [| a2; _ |]; [| _; b3 |] ] ->
    Alcotest.(check string) "numeric object key" {|["key"]|} (Datum.to_display a1);
    Alcotest.(check string) "index" "[2]" (Datum.to_display b1);
    Alcotest.(check string) "missing" "[]" (Datum.to_display a2);
    Alcotest.(check string) "second element" "[8]" (Datum.to_display b3)
  | _ -> Alcotest.fail "expected three rows"

(* A [$k] path is split once per execution: each EXECUTE reads its own
   path, and the results equal the constant path's, row for row. *)
let test_jsonb_path_param_per_execution () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE docs (id bigint, data jsonb)");
  ignore
    (exec s
       {|INSERT INTO docs VALUES (1, '{"a": {"0": "key"}, "b": [1, 2]}'),
         (2, '{"b": [{"x": 5}, {"x": 6}]}'), (3, '{"b": [7, 8]}'), (4, NULL)|});
  ignore
    (exec s "PREPARE q AS SELECT jsonb_path_query_array(data, $1)::text, \
             jsonb_path_query_array(data, $1) FROM docs ORDER BY id");
  List.iter
    (fun path ->
      let text = List.map (Array.map Datum.to_display) in
      Alcotest.(check (list (array string)))
        path
        (text
           (rows s
              (Printf.sprintf
                 "SELECT jsonb_path_query_array(data, '%s')::text, \
                  jsonb_path_query_array(data, '%s') FROM docs ORDER BY id"
                 path path)))
        (text (rows s (Printf.sprintf "EXECUTE q('%s')" path))))
    [ "$.b[*].x"; "$.a.0"; "$.b[1]"; "$.b"; "$.b[*].x" ]

(* --- transactions --- *)

let test_txn_rollback () =
  let _, s = fresh () in
  setup_accounts s;
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE accounts SET balance = 0 WHERE id = 1");
  check_int s "own write visible" 0 "SELECT balance FROM accounts WHERE id = 1";
  ignore (exec s "ROLLBACK");
  check_int s "rolled back" 100 "SELECT balance FROM accounts WHERE id = 1"

let test_txn_isolation_between_sessions () =
  let inst, s1 = fresh () in
  setup_accounts s1;
  let s2 = Instance.connect inst in
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE accounts SET balance = 0 WHERE id = 1");
  check_int s2 "other session sees old" 100
    "SELECT balance FROM accounts WHERE id = 1";
  ignore (exec s1 "COMMIT");
  check_int s2 "after commit sees new" 0
    "SELECT balance FROM accounts WHERE id = 1"

let test_failed_block_requires_rollback () =
  let _, s = fresh () in
  setup_accounts s;
  ignore (exec s "BEGIN");
  (match exec s "SELECT nonexistent_col FROM accounts" with
   | exception Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "should fail");
  (match exec s "SELECT 1" with
   | exception Instance.Session_error m ->
     Alcotest.(check bool) "aborted message" true
       (Expr_eval.like_match ~pattern:"%aborted%" ~ci:true m)
   | _ -> Alcotest.fail "block should be failed");
  ignore (exec s "ROLLBACK");
  check_int s "usable again" 3 "SELECT count(*) FROM accounts"

let test_write_conflict_blocks () =
  let inst, s1 = fresh () in
  setup_accounts s1;
  let s2 = Instance.connect inst in
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE accounts SET balance = 1 WHERE id = 1");
  ignore (exec s2 "BEGIN");
  (match exec s2 "UPDATE accounts SET balance = 2 WHERE id = 1" with
   | exception Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "expected Would_block");
  ignore (exec s1 "COMMIT");
  (* retry now succeeds *)
  ignore (exec s2 "UPDATE accounts SET balance = 2 WHERE id = 1");
  ignore (exec s2 "COMMIT");
  check_int s1 "final value" 2 "SELECT balance FROM accounts WHERE id = 1"

let test_deadlock_detected_by_maintenance () =
  let inst, s1 = fresh () in
  setup_accounts s1;
  let s2 = Instance.connect inst in
  ignore (exec s1 "BEGIN");
  ignore (exec s2 "BEGIN");
  ignore (exec s1 "UPDATE accounts SET balance = 1 WHERE id = 1");
  ignore (exec s2 "UPDATE accounts SET balance = 2 WHERE id = 2");
  (match exec s1 "UPDATE accounts SET balance = 1 WHERE id = 2" with
   | exception Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "s1 should block");
  (match exec s2 "UPDATE accounts SET balance = 2 WHERE id = 1" with
   | exception Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "s2 should block");
  Instance.maintenance_tick inst;
  (* the younger transaction (s2) was aborted; s1 can proceed *)
  ignore (exec s1 "UPDATE accounts SET balance = 1 WHERE id = 2");
  ignore (exec s1 "COMMIT");
  match exec s2 "SELECT 1" with
  | exception Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "s2 should observe its abort"

let test_prepare_transaction_via_sql () =
  let inst, s1 = fresh () in
  setup_accounts s1;
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE accounts SET balance = 0 WHERE id = 1");
  ignore (exec s1 "PREPARE TRANSACTION 'gid_1'");
  (* another session cannot see it yet *)
  let s2 = Instance.connect inst in
  check_int s2 "not visible" 100 "SELECT balance FROM accounts WHERE id = 1";
  ignore (exec s2 "COMMIT PREPARED 'gid_1'");
  check_int s2 "visible after commit prepared" 0
    "SELECT balance FROM accounts WHERE id = 1"

(* A read outside a transaction block that meets an in-doubt prepared
   transaction fails with [In_doubt] and ends its implicit transaction:
   no xid stays open, so no lock outlives the failed read. *)
let test_in_doubt_read_ends_implicit_txn () =
  let inst, s1 = fresh () in
  setup_accounts s1;
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE accounts SET balance = 0 WHERE id = 1");
  ignore (exec s1 "PREPARE TRANSACTION 'gid_3'");
  let s2 = Instance.connect inst in
  Instance.set_read_mode s2 Txn.Snapshot.Resolving;
  (match exec s2 "SELECT balance FROM accounts WHERE id = 1" with
   | _ -> Alcotest.fail "the read should meet the prepared transaction"
   | exception Txn.Manager.In_doubt _ -> ());
  Alcotest.(check (option int)) "no transaction left open" None
    (Instance.current_xid s2);
  ignore (exec s1 "COMMIT PREPARED 'gid_3'");
  check_int s2 "the retried read sees the commit" 0
    "SELECT balance FROM accounts WHERE id = 1"

(* CREATE INDEX indexes every row version, as the restart rebuild does,
   so a reader at an HLC timestamp before an UPDATE still finds the old
   version through the new index. *)
let test_create_index_serves_old_snapshot () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE kv (k bigint, v text)");
  ignore (exec s "INSERT INTO kv VALUES (1, 'old')");
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE kv SET v = 'new' WHERE k = 1");
  Instance.set_pending_commit_ts s (Some { Txn.Hlc.pt = 10.0; lc = 0 });
  ignore (exec s "COMMIT");
  ignore (exec s "CREATE INDEX kv_v ON kv (v)");
  let old_rows () =
    let r = Instance.connect inst in
    Instance.set_read_mode r (Txn.Snapshot.At { Txn.Hlc.pt = 5.0; lc = 0 });
    one_int r "SELECT count(*) FROM kv WHERE v = 'old'"
  in
  Alcotest.(check int) "old version through the new index" 1 (old_rows ());
  Instance.restart inst;
  Alcotest.(check int) "and after a restart" 1 (old_rows ())

let test_prepared_survives_restart () =
  let inst, s1 = fresh () in
  setup_accounts s1;
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE accounts SET balance = 0 WHERE id = 1");
  ignore (exec s1 "PREPARE TRANSACTION 'gid_2'");
  Instance.restart inst;
  let s2 = Instance.connect inst in
  Alcotest.(check int) "still prepared" 1
    (List.length (Txn.Manager.prepared_transactions (Instance.txn_manager inst)));
  ignore (exec s2 "COMMIT PREPARED 'gid_2'");
  check_int s2 "applied" 0 "SELECT balance FROM accounts WHERE id = 1"

(* --- COPY --- *)

let test_copy_in () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint, b text)");
  let n =
    Instance.copy_in s ~table:"t" ~columns:None
      [ "1\thello"; "2\tworld"; "3\t\\N" ]
  in
  Alcotest.(check int) "copied" 3 n;
  check_int s "rows" 3 "SELECT count(*) FROM t";
  check_int s "null copied" 1 "SELECT count(*) FROM t WHERE b IS NULL"

(* --- vacuum / autovacuum --- *)

let test_vacuum_via_sql () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint PRIMARY KEY, body text)");
  ignore (exec s "CREATE INDEX t_trgm ON t USING GIN ((body) gin_trgm_ops)");
  ignore (exec s "INSERT INTO t SELECT 1 WHERE FALSE");
  (* no-op insert *)
  ignore (exec s "BEGIN");
  for i = 1 to 100 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, 'postgres row %d')" i i))
  done;
  ignore (exec s "COMMIT");
  ignore (exec s "DELETE FROM t WHERE a <= 60");
  let r = exec s "VACUUM t" in
  Alcotest.(check int) "reclaimed" 60 r.Instance.affected;
  check_int s "survivors" 40 "SELECT count(*) FROM t";
  (* each index holds exactly the tids of the versions left *)
  let survivors =
    match (Catalog.find_table (Instance.catalog inst) "t").store with
    | Catalog.Heap_store h ->
      let tids = ref [] in
      Storage.Heap.scan_physical h ~f:(fun tid _ _ -> tids := tid :: !tids);
      List.rev !tids
    | Catalog.Columnar_store _ -> Alcotest.fail "heap table expected"
  in
  Alcotest.(check (list int)) "pk entries" survivors
    (List.sort Int.compare
       (List.map snd
          (Storage.Btree.range (pk_of inst "t") ~lower:Storage.Btree.Unbounded
             ~upper:Storage.Btree.Unbounded)));
  Alcotest.(check (option (list int))) "gin entries" (Some survivors)
    (Storage.Gin.candidates (gin_of inst "t") "postgres");
  (* a row put back into a reclaimed slot has one entry *)
  ignore (exec s "INSERT INTO t VALUES (1, 'postgres again')");
  (match Storage.Btree.find_eq (pk_of inst "t") [| Datum.Int 1 |] with
   | [ tid ] -> Alcotest.(check bool) "reclaimed slot" false (List.mem tid survivors)
   | l -> Alcotest.fail (Printf.sprintf "%d pk entries for a = 1" (List.length l)));
  check_int s "found once by the primary key" 1 "SELECT count(*) FROM t WHERE a = 1"

(* --- utility --- *)

let test_truncate () =
  let _, s = fresh () in
  setup_accounts s;
  ignore (exec s "TRUNCATE accounts");
  check_int s "empty" 0 "SELECT count(*) FROM accounts"

(* Replaying a TRUNCATE clears the heap alone: every index stays empty
   from the start of recovery until the rebuild over the replayed heap. *)
let test_truncate_then_restart () =
  let inst, s = fresh () in
  setup_gin_msgs s;
  ignore (exec s "TRUNCATE msgs");
  ignore (exec s "INSERT INTO msgs VALUES (7, 'postgres after truncate')");
  Instance.restart inst;
  let s = Instance.connect inst in
  check_int s "new row by pk" 1 "SELECT count(*) FROM msgs WHERE id = 7";
  check_int s "truncated row gone by pk" 0 "SELECT count(*) FROM msgs WHERE id = 1";
  check_int s "new row by gin" 1 "SELECT count(*) FROM msgs WHERE body ILIKE '%postgres%'";
  Alcotest.(check int) "pk entries" 1 (Storage.Btree.entry_count (pk_of inst "msgs"));
  Alcotest.(check (option (list int))) "gin entries" (Some [ 0 ])
    (Storage.Gin.candidates (gin_of inst "msgs") "postgres")

(* WAL records name their table: replay must not put a dropped table's
   rows into a later table of the same name. *)
let test_drop_then_restart () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint PRIMARY KEY)");
  List.iter (fun a -> ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d)" a))) [ 1; 2; 3 ];
  ignore (exec s "DROP TABLE t");
  ignore (exec s "CREATE TABLE t (a bigint PRIMARY KEY)");
  ignore (exec s "INSERT INTO t VALUES (4)");
  check_int s "before restart" 1 "SELECT count(*) FROM t";
  Instance.restart inst;
  let s = Instance.connect inst in
  check_int s "after restart" 1 "SELECT count(*) FROM t";
  check_int s "the new row" 1 "SELECT count(*) FROM t WHERE a = 4"

let test_alter_add_column () =
  let _, s = fresh () in
  setup_accounts s;
  ignore (exec s "ALTER TABLE accounts ADD COLUMN note text DEFAULT 'x'");
  check_int s "default applied" 3 "SELECT count(*) FROM accounts WHERE note = 'x'"

let test_udf_registration () =
  let inst, s = fresh () in
  Instance.register_udf inst "magic_number" (fun _s _args -> Datum.Int 42);
  check_int s "udf result" 42 "SELECT magic_number()"

let test_params () =
  let _, s = fresh () in
  setup_accounts s;
  Citus.Session.prepare s ~name:"balance"
    "SELECT balance FROM accounts WHERE id = $1";
  let r = Citus.Session.execute s "balance" [ Datum.Int 2 ] in
  match r.Instance.rows with
  | [ [| Datum.Int 200 |] ] -> ()
  | _ -> Alcotest.fail "param binding failed"

let test_columnar_table () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE facts (k bigint, v bigint) USING COLUMNAR");
  ignore (exec s "INSERT INTO facts VALUES (1, 10), (2, 20), (3, 30)");
  check_int s "columnar sum" 60 "SELECT sum(v) FROM facts";
  match exec s "UPDATE facts SET v = 0" with
  | exception Instance.Session_error _ -> ()
  | _ -> Alcotest.fail "columnar update should fail"

(* A columnar append logs no WAL record (its stripes are durable in
   place), so only the DML's mark that the transaction wrote gets its
   commit logged; without it the replayed clog would hide the rows. *)
let test_columnar_survives_restart () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE facts (k bigint, v bigint) USING COLUMNAR");
  ignore (exec s "BEGIN");
  ignore (exec s "INSERT INTO facts VALUES (1, 10), (2, 20)");
  ignore (exec s "INSERT INTO facts VALUES (3, 30)");
  ignore (exec s "COMMIT");
  ignore (exec s "INSERT INTO facts VALUES (4, 40)");
  ignore (exec s "BEGIN");
  ignore (exec s "INSERT INTO facts VALUES (5, 50)");
  ignore (exec s "ROLLBACK");
  Instance.restart inst;
  let s = Instance.connect inst in
  check_int s "committed columnar rows survive" 4 "SELECT count(*) FROM facts";
  check_int s "rolled-back rows stay hidden" 100 "SELECT sum(v) FROM facts"

let test_insert_select () =
  let _, s = fresh () in
  setup_accounts s;
  ignore (exec s "CREATE TABLE rich (id bigint, owner text)");
  ignore
    (exec s
       "INSERT INTO rich SELECT id, owner FROM accounts WHERE balance >= 200");
  check_int s "insert..select" 2 "SELECT count(*) FROM rich"

let () =
  Alcotest.run "engine"
    [
      ( "crud",
        [
          Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "defaults and nulls" `Quick
            test_insert_defaults_and_nulls;
          Alcotest.test_case "pk violation" `Quick test_pk_violation;
          Alcotest.test_case "not null" `Quick test_not_null;
          Alcotest.test_case "insert..select" `Quick test_insert_select;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "where logic" `Quick test_where_logic;
          Alcotest.test_case "case/arith" `Quick test_case_and_arith;
          Alcotest.test_case "quoted literal, index or not" `Quick
            test_quoted_literal_index_or_not;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "simple" `Quick test_aggregates;
          Alcotest.test_case "empty" `Quick test_count_empty;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "ordinal + having" `Quick
            test_group_by_ordinal_and_having;
          Alcotest.test_case "distinct agg" `Quick test_distinct_agg;
          Alcotest.test_case "distinct select" `Quick test_distinct_select;
          Alcotest.test_case "order/limit/offset" `Quick test_order_limit_offset;
        ] );
      ( "joins",
        [
          Alcotest.test_case "inner" `Quick test_inner_join;
          Alcotest.test_case "left" `Quick test_left_join;
          Alcotest.test_case "left, where on right" `Quick test_left_join_where_right;
          Alcotest.test_case "where evaluated once" `Quick test_where_evaluated_once;
          Alcotest.test_case "cross" `Quick test_cross_join;
          Alcotest.test_case "comma + where" `Quick test_comma_join_with_where;
          Alcotest.test_case "join aggregate" `Quick test_join_aggregate;
        ] );
      ( "subqueries",
        [
          Alcotest.test_case "from subquery" `Quick test_subquery_in_from;
          Alcotest.test_case "venicedb shape" `Quick
            test_nested_aggregation_venicedb_shape;
          Alcotest.test_case "scalar" `Quick test_scalar_subquery;
          Alcotest.test_case "in subquery" `Quick test_in_subquery;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "pk btree used" `Quick test_btree_index_used;
          Alcotest.test_case "secondary" `Quick test_secondary_index;
          Alcotest.test_case "meter units since" `Quick test_units_since_is_total_of_diff;
          Alcotest.test_case "gin ilike" `Quick test_gin_index_query;
          Alcotest.test_case "gin multi-segment like" `Quick test_gin_multi_segment_like;
          Alcotest.test_case "gin pending rows found" `Quick test_gin_pending_rows_found;
          Alcotest.test_case "gin pending row vacuumed" `Quick test_gin_pending_row_vacuumed;
          Alcotest.test_case "gin pending survives restart" `Quick
            test_gin_pending_survives_restart;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonb_roundtrip;
          Alcotest.test_case "path/array" `Quick test_jsonb_path_and_array_length;
          Alcotest.test_case "const path = column path" `Quick
            test_jsonb_path_const_matches_column;
          Alcotest.test_case "jsonb path as $k" `Quick test_jsonb_path_param_per_execution;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "rollback" `Quick test_txn_rollback;
          Alcotest.test_case "isolation" `Quick test_txn_isolation_between_sessions;
          Alcotest.test_case "failed block" `Quick
            test_failed_block_requires_rollback;
          Alcotest.test_case "write conflict" `Quick test_write_conflict_blocks;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detected_by_maintenance;
          Alcotest.test_case "prepare transaction" `Quick
            test_prepare_transaction_via_sql;
          Alcotest.test_case "in-doubt read ends implicit txn" `Quick
            test_in_doubt_read_ends_implicit_txn;
          Alcotest.test_case "create index serves an old snapshot" `Quick
            test_create_index_serves_old_snapshot;
          Alcotest.test_case "prepared survives restart" `Quick
            test_prepared_survives_restart;
        ] );
      ( "utility",
        [
          Alcotest.test_case "copy" `Quick test_copy_in;
          Alcotest.test_case "vacuum" `Quick test_vacuum_via_sql;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "truncate then restart" `Quick test_truncate_then_restart;
          Alcotest.test_case "drop then restart" `Quick test_drop_then_restart;
          Alcotest.test_case "alter add column" `Quick test_alter_add_column;
          Alcotest.test_case "udf" `Quick test_udf_registration;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "columnar" `Quick test_columnar_table;
          Alcotest.test_case "columnar survives restart" `Quick
            test_columnar_survives_restart;
        ] );
    ]
