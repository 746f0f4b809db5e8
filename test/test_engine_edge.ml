(* Engine edge cases: SQL NULL semantics, error paths, type coercion,
   LIKE corner cases, index maintenance under churn, autovacuum, COPY
   errors, cross-session visibility subtleties. *)

open Engine

let fresh () =
  let inst = Instance.create ~name:"pg" () in
  (inst, Instance.connect inst)

let exec s sql = Instance.exec s sql

let rows s sql = (exec s sql).Instance.rows

let one s sql =
  match rows s sql with
  | [ [| d |] ] -> d
  | _ -> Alcotest.fail ("expected one cell from " ^ sql)

let one_int s sql =
  match one s sql with
  | Datum.Int i -> i
  | d -> Alcotest.fail ("expected int, got " ^ Datum.to_display d)

let expect_error s sql =
  match exec s sql with
  | exception Instance.Session_error _ -> ()
  | exception Executor.Exec_error _ -> ()
  | _ -> Alcotest.fail ("should have failed: " ^ sql)

(* --- NULL semantics --- *)

let setup_nulls s =
  ignore (exec s "CREATE TABLE n (a bigint, b bigint)");
  ignore (exec s "INSERT INTO n VALUES (1, 10), (2, NULL), (NULL, 30), (NULL, NULL)")

let test_null_comparisons () =
  let _, s = fresh () in
  setup_nulls s;
  Alcotest.(check int) "= NULL matches nothing" 0
    (one_int s "SELECT count(*) FROM n WHERE a = NULL");
  Alcotest.(check int) "IS NULL" 2 (one_int s "SELECT count(*) FROM n WHERE a IS NULL");
  Alcotest.(check int) "IS NOT NULL" 2
    (one_int s "SELECT count(*) FROM n WHERE a IS NOT NULL");
  Alcotest.(check int) "<> skips nulls" 1
    (one_int s "SELECT count(*) FROM n WHERE a <> 1")

let test_null_three_valued_logic () =
  let _, s = fresh () in
  setup_nulls s;
  (* NULL OR TRUE = TRUE; NULL AND TRUE = NULL (rejected by WHERE) *)
  Alcotest.(check int) "null or true" 4
    (one_int s "SELECT count(*) FROM n WHERE a = NULL OR TRUE");
  Alcotest.(check int) "null and true" 0
    (one_int s "SELECT count(*) FROM n WHERE a = NULL AND TRUE");
  (* NOT NULL is NULL *)
  Alcotest.(check int) "not null-cmp" 0
    (one_int s "SELECT count(*) FROM n WHERE NOT (a = NULL)")

let test_null_in_aggregates () =
  let _, s = fresh () in
  setup_nulls s;
  Alcotest.(check int) "count(*) counts all" 4 (one_int s "SELECT count(*) FROM n");
  Alcotest.(check int) "count(a) skips nulls" 2 (one_int s "SELECT count(a) FROM n");
  Alcotest.(check int) "sum skips nulls" 3 (one_int s "SELECT sum(a) FROM n");
  (* avg over non-null values only *)
  (match one s "SELECT avg(b) FROM n" with
   | Datum.Float f -> Alcotest.(check (float 0.001)) "avg" 20.0 f
   | _ -> Alcotest.fail "avg type");
  (* min/max ignore nulls *)
  Alcotest.(check int) "min" 1 (one_int s "SELECT min(a) FROM n")

let test_null_in_group_by () =
  let _, s = fresh () in
  setup_nulls s;
  (* NULL forms its own group *)
  Alcotest.(check int) "3 groups" 3
    (List.length (rows s "SELECT a, count(*) FROM n GROUP BY a"))

let test_null_ordering () =
  let _, s = fresh () in
  setup_nulls s;
  (* NULLS LAST on ascending order *)
  match rows s "SELECT a FROM n ORDER BY a ASC" with
  | [ [| Datum.Int 1 |]; [| Datum.Int 2 |]; [| Datum.Null |]; [| Datum.Null |] ]
    -> ()
  | _ -> Alcotest.fail "nulls last failed"

let test_in_list_with_null () =
  let _, s = fresh () in
  setup_nulls s;
  (* x IN (1, NULL): true for 1, NULL (not true) otherwise *)
  Alcotest.(check int) "in with null" 1
    (one_int s "SELECT count(*) FROM n WHERE a IN (1, NULL)");
  (* NOT IN with NULL matches nothing *)
  Alcotest.(check int) "not in with null" 0
    (one_int s "SELECT count(*) FROM n WHERE a NOT IN (1, NULL)")

(* --- errors --- *)

let test_division_by_zero () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  ignore (exec s "INSERT INTO t VALUES (1)");
  expect_error s "SELECT a / 0 FROM t"

let test_unknown_column_and_table () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  expect_error s "SELECT nope FROM t";
  expect_error s "SELECT * FROM missing";
  expect_error s "INSERT INTO missing VALUES (1)"

let test_ambiguous_column () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE x (v bigint)");
  ignore (exec s "CREATE TABLE y (v bigint)");
  ignore (exec s "INSERT INTO x VALUES (1)");
  ignore (exec s "INSERT INTO y VALUES (1)");
  expect_error s "SELECT v FROM x, y"

let test_resolve_columns () =
  let col rq rname = { Expr_eval.rq; rname } in
  let schema =
    [ col (Some "x") "v"; col (Some "x") "a"; col (Some "y") "v"; col None "b" ]
  in
  let pos q name = Expr_eval.resolve schema q name in
  let error q name =
    match Expr_eval.resolve schema q name with
    | i -> Alcotest.failf "expected an error, got position %d" i
    | exception Expr_eval.Eval_error m -> m
  in
  Alcotest.(check int) "unqualified hit" 1 (pos None "a");
  Alcotest.(check int) "unqualified column hit" 3 (pos None "b");
  Alcotest.(check int) "qualified first" 0 (pos (Some "x") "v");
  Alcotest.(check int) "qualified later" 2 (pos (Some "y") "v");
  Alcotest.(check string) "ambiguous" "column reference v is ambiguous" (error None "v");
  Alcotest.(check string) "unknown" "column nope does not exist" (error None "nope");
  Alcotest.(check string) "unknown qualified" "column y.a does not exist"
    (error (Some "y") "a");
  Alcotest.(check string) "qualifier never matches an unqualified column"
    "column x.b does not exist" (error (Some "x") "b")

let test_cast_error_aborts_autocommit_txn () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  expect_error s "INSERT INTO t VALUES ('not-a-number')";
  Alcotest.(check int) "nothing inserted" 0 (one_int s "SELECT count(*) FROM t")

let test_error_inside_block_keeps_prior_writes_pending () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  ignore (exec s "BEGIN");
  ignore (exec s "INSERT INTO t VALUES (1)");
  expect_error s "SELECT 1 / 0";
  (* block failed: COMMIT acts as rollback *)
  ignore (exec s "COMMIT");
  Alcotest.(check int) "rolled back" 0 (one_int s "SELECT count(*) FROM t")

(* --- coercion / expressions --- *)

let test_int_float_mixing () =
  let _, s = fresh () in
  (match one s "SELECT 1 + 2.5" with
   | Datum.Float f -> Alcotest.(check (float 0.001)) "promote" 3.5 f
   | _ -> Alcotest.fail "type");
  (* integer division truncates *)
  Alcotest.(check int) "int div" 2 (one_int s "SELECT 7 / 3");
  Alcotest.(check int) "modulo" 1 (one_int s "SELECT 7 % 3")

let test_text_concat () =
  let _, s = fresh () in
  match one s "SELECT 'a' || 'b' || 42" with
  | Datum.Text "ab42" -> ()
  | d -> Alcotest.fail (Datum.to_display d)

let test_case_without_else_is_null () =
  let _, s = fresh () in
  match one s "SELECT CASE WHEN FALSE THEN 1 END" with
  | Datum.Null -> ()
  | d -> Alcotest.fail (Datum.to_display d)

let test_coalesce_nullif () =
  let _, s = fresh () in
  Alcotest.(check int) "coalesce" 5 (one_int s "SELECT coalesce(NULL, NULL, 5, 9)");
  (match one s "SELECT nullif(3, 3)" with
   | Datum.Null -> ()
   | _ -> Alcotest.fail "nullif equal");
  Alcotest.(check int) "nullif different" 3 (one_int s "SELECT nullif(3, 4)")

let test_like_corner_cases () =
  let m pattern str = Expr_eval.like_match ~pattern ~ci:false str in
  Alcotest.(check bool) "empty pattern empty string" true (m "" "");
  Alcotest.(check bool) "empty pattern" false (m "" "x");
  Alcotest.(check bool) "pure percent" true (m "%" "");
  Alcotest.(check bool) "underscore" true (m "a_c" "abc");
  Alcotest.(check bool) "underscore strict" false (m "a_c" "ac");
  Alcotest.(check bool) "multi percent" true (m "%a%b%" "xxaxxbxx");
  Alcotest.(check bool) "anchored" false (m "a%" "ba");
  Alcotest.(check bool) "repeated pattern" true (m "%ab%ab%" "abab")

(* Reference matcher: the memoized recursion over (pattern index, text
   index) that [like_match] replaced. Exponential without the memo, so
   it stays here as the oracle only. *)
let like_reference ~pattern ~ci s =
  let p = if ci then String.lowercase_ascii pattern else pattern in
  let s = if ci then String.lowercase_ascii s else s in
  let np = String.length p and ns = String.length s in
  let memo = Hashtbl.create 64 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi >= np then si >= ns
        else
          match p.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.replace memo (pi, si) r;
      r
  in
  go 0 0

(* LIKE as [Expr_eval.compile] builds it over a row [| subject; pattern |],
   the pattern a constant or a column. *)
let compiled_like ~const ~ci ~negated pattern subject =
  let open Sqlfront.Ast in
  let rng = Random.State.make [| 0 |] in
  let rt =
    { Expr_eval.x_params = (fun () -> [||]); x_now = (fun () -> 0.);
      x_rng = (fun () -> rng); x_subquery = (fun _ () -> []) }
  in
  let schema = [ { Expr_eval.rq = None; rname = "s" }; { Expr_eval.rq = None; rname = "p" } ] in
  let pat = if const then Const (Datum.Text pattern) else Column (None, "p") in
  Expr_eval.compile schema rt
    (Like { subject = Column (None, "s"); pattern = pat; ci; negated })
    () [| subject; Datum.Text pattern |]

let prop_like_matches_reference =
  let open QCheck2.Gen in
  let str alphabet = string_size ~gen:(oneofl alphabet) (int_range 0 10) in
  QCheck2.Test.make ~name:"like_match agrees with oracle"
    ~count:3000
    ~print:(fun (p, s, ci) -> Printf.sprintf "pattern %S text %S ci %b" p s ci)
    (triple (str [ 'a'; 'b'; 'A'; 'B'; '%'; '%'; '_' ]) (str [ 'a'; 'b'; 'A'; 'B' ]) bool)
    (fun (pattern, s, ci) ->
      let expect = like_reference ~pattern ~ci s in
      Bool.equal (Expr_eval.like_match ~pattern ~ci s) expect
      && List.for_all
           (fun (const, negated) ->
             compiled_like ~const ~ci ~negated pattern (Datum.Text s)
             = Datum.Bool (expect <> negated))
           [ (true, false); (true, true); (false, false); (false, true) ])

(* The two-pointer matcher the segment matcher replaced, kept as the
   reference: on a mismatch it backtracks to the last [%] and lets it
   absorb one more byte. *)
let like_two_pointer ~ci pattern s =
  let p = if ci then String.lowercase_ascii pattern else pattern in
  let np = String.length p and ns = String.length s in
  let fold c = if ci then Char.lowercase_ascii c else c in
  let rec only_pct pi = pi >= np || (p.[pi] = '%' && only_pct (pi + 1)) in
  let rec go pi si star_pi star_si =
    if si < ns then
      if pi < np && p.[pi] = '%' then go (pi + 1) si pi si
      else if pi < np && (p.[pi] = '_' || p.[pi] = fold s.[si]) then
        go (pi + 1) (si + 1) star_pi star_si
      else if star_pi >= 0 then go (star_pi + 1) (star_si + 1) star_pi (star_si + 1)
      else false
    else only_pct pi
  in
  go 0 0 (-1) 0

(* Texts over both cases and bytes from 0x80 up (which do not fold);
   patterns drawn at random, or cut from the text so that most match:
   bytes kept, case-flipped, turned into [_] or [%], or with a [%] or
   [%%] put before them. *)
let prop_like_matches_two_pointer =
  let open QCheck2.Gen in
  let byte = oneofl [ 'a'; 'b'; 'A'; 'B'; 'o'; '\xc3'; '\xa9'; '\xc9'; '\xe9' ] in
  let text = string_size ~gen:byte (int_range 0 24) in
  let random_pattern =
    string_size ~gen:(frequency [ (4, byte); (2, return '%'); (1, return '_') ]) (int_range 0 12)
  in
  let cut s =
    map
      (fun ops ->
        String.concat ""
          (List.mapi
             (fun i op ->
               let c = String.make 1 s.[i] in
               match op with
               | 0 -> "_"
               | 1 -> "%"
               | 2 -> "%" ^ c
               | 3 -> "%%" ^ c
               | 4 -> String.uppercase_ascii c
               | _ -> c)
             ops))
      (list_repeat (String.length s) (int_range 0 9))
  in
  QCheck2.Test.make ~name:"segment LIKE agrees with the two-pointer matcher" ~count:5000
    ~print:(fun (p, s, ci) -> Printf.sprintf "pattern %S text %S ci %b" p s ci)
    (text >>= fun s ->
     triple (oneof [ random_pattern; cut s; map (fun p -> "%" ^ p ^ "%") (cut s) ]) (return s) bool)
    (fun (pattern, s, ci) ->
      Bool.equal (Expr_eval.like_match ~pattern ~ci s) (like_two_pointer ~ci pattern s))

(* A [$k] pattern's matcher is built once per execution (an execution
   is its params array here): each execution matches its own pattern. *)
let test_like_param_per_execution () =
  let open Sqlfront.Ast in
  let rng = Random.State.make [| 0 |] in
  let rt =
    { Expr_eval.x_params = Fun.id; x_now = (fun _ -> 0.); x_rng = (fun _ -> rng);
      x_subquery = (fun _ _ -> []) }
  in
  let like =
    Expr_eval.compile [ { Expr_eval.rq = None; rname = "s" } ] rt
      (Like { subject = Column (None, "s"); pattern = Param 1; ci = true; negated = false })
  in
  let check execution expect =
    List.iter2
      (fun text want ->
        Alcotest.(check string) text want (Datum.to_display (like execution [| Datum.Text text |])))
      [ "xPGx"; "abc"; "ABC" ] expect
  in
  check [| Datum.Text "%pg%" |] [ "t"; "f"; "f" ];
  check [| Datum.Text "a_c" |] [ "f"; "t"; "t" ];
  check [| Datum.Null |] [ ""; ""; "" ];
  check [| Datum.Text "%PG%" |] [ "t"; "f"; "f" ]

let test_like_null_subject () =
  List.iter
    (fun (const, negated) ->
      match compiled_like ~const ~ci:true ~negated "%a%" Datum.Null with
      | Datum.Null -> ()
      | d -> Alcotest.fail ("NULL LIKE gave " ^ Datum.to_display d))
    [ (true, false); (true, true) ]

let test_between_inclusive () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  ignore (exec s "INSERT INTO t VALUES (1), (2), (3)");
  Alcotest.(check int) "inclusive" 3
    (one_int s "SELECT count(*) FROM t WHERE a BETWEEN 1 AND 3")

let test_offset_beyond_rows () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint)");
  ignore (exec s "INSERT INTO t VALUES (1), (2)");
  Alcotest.(check int) "empty past end" 0
    (List.length (rows s "SELECT a FROM t ORDER BY a OFFSET 10"));
  Alcotest.(check int) "limit zero" 0
    (List.length (rows s "SELECT a FROM t LIMIT 0"))

let test_multi_key_ordering () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint, b bigint)");
  ignore (exec s "INSERT INTO t VALUES (1, 2), (1, 1), (2, 1), (2, 2)");
  match rows s "SELECT a, b FROM t ORDER BY a ASC, b DESC" with
  | [
   [| Datum.Int 1; Datum.Int 2 |];
   [| Datum.Int 1; Datum.Int 1 |];
   [| Datum.Int 2; Datum.Int 2 |];
   [| Datum.Int 2; Datum.Int 1 |];
  ] ->
    ()
  | _ -> Alcotest.fail "mixed-direction ordering failed"

(* --- index maintenance under churn --- *)

let test_secondary_index_sees_updates () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "CREATE INDEX t_v ON t USING BTREE (v)");
  for i = 1 to 50 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 5)))
  done;
  ignore (exec s "UPDATE t SET v = 99 WHERE v = 3");
  Alcotest.(check int) "moved rows found via index" 10
    (one_int s "SELECT count(*) FROM t WHERE v = 99");
  Alcotest.(check int) "old value gone" 0
    (one_int s "SELECT count(*) FROM t WHERE v = 3")

let test_index_correct_after_vacuum () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "CREATE INDEX t_v ON t USING BTREE (v)");
  for i = 1 to 30 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done;
  ignore (exec s "DELETE FROM t WHERE v <= 20");
  ignore (exec s "VACUUM t");
  (* slots are reused; index lookups must not resurrect old rows *)
  for i = 101 to 110 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done;
  Alcotest.(check int) "no ghosts" 0
    (one_int s "SELECT count(*) FROM t WHERE v = 5");
  Alcotest.(check int) "new rows found" 1
    (one_int s "SELECT count(*) FROM t WHERE v = 105");
  Alcotest.(check int) "total" 20 (one_int s "SELECT count(*) FROM t");
  ignore inst

let test_autovacuum_via_maintenance () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY)");
  ignore (exec s "BEGIN");
  for i = 1 to 100 do
    ignore (exec s (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  ignore (exec s "COMMIT");
  ignore (exec s "DELETE FROM t WHERE k <= 80");
  let catalog = Instance.catalog inst in
  let heap =
    match (Catalog.find_table catalog "t").Catalog.store with
    | Catalog.Heap_store h -> h
    | _ -> assert false
  in
  Alcotest.(check bool) "dead tuples before" true (Storage.Heap.dead_estimate heap > 50);
  Instance.maintenance_tick inst;
  Alcotest.(check int) "autovacuum reclaimed" 0 (Storage.Heap.dead_estimate heap)

(* --- COPY --- *)

let test_copy_field_count_mismatch () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint, b text)");
  (match Instance.copy_in s ~table:"t" ~columns:None [ "1\tx\textra" ] with
   | exception Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "should reject wrong field count");
  (match Instance.copy_in s ~table:"t" ~columns:None [ "oops\tx" ] with
   | exception Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "should reject bad int")

let test_copy_column_subset () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (a bigint, b text DEFAULT 'd', c bigint)");
  ignore (Instance.copy_in s ~table:"t" ~columns:(Some [ "a"; "c" ]) [ "1\t2" ]);
  match rows s "SELECT a, b, c FROM t" with
  | [ [| Datum.Int 1; Datum.Null; Datum.Int 2 |] ] ->
    (* COPY does not apply defaults (like PostgreSQL): unlisted columns are NULL *)
    ()
  | _ -> Alcotest.fail "copy subset failed"

(* --- visibility subtleties --- *)

let test_own_uncommitted_update_chain () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "INSERT INTO t VALUES (1, 0)");
  ignore (exec s "BEGIN");
  ignore (exec s "UPDATE t SET v = v + 1 WHERE k = 1");
  ignore (exec s "UPDATE t SET v = v + 1 WHERE k = 1");
  ignore (exec s "UPDATE t SET v = v + 1 WHERE k = 1");
  Alcotest.(check int) "sees own chain" 3 (one_int s "SELECT v FROM t WHERE k = 1");
  Alcotest.(check int) "single visible version" 1
    (one_int s "SELECT count(*) FROM t");
  ignore (exec s "COMMIT");
  Alcotest.(check int) "after commit" 3 (one_int s "SELECT v FROM t WHERE k = 1")

let test_read_committed_sees_new_data_per_statement () =
  let inst, s1 = fresh () in
  let s2 = Instance.connect inst in
  ignore (exec s1 "CREATE TABLE t (k bigint)");
  ignore (exec s2 "BEGIN");
  Alcotest.(check int) "empty" 0 (one_int s2 "SELECT count(*) FROM t");
  ignore (exec s1 "INSERT INTO t VALUES (1)");
  (* read committed: the next statement takes a fresh snapshot *)
  Alcotest.(check int) "sees committed insert" 1
    (one_int s2 "SELECT count(*) FROM t");
  ignore (exec s2 "COMMIT")

let test_delete_then_insert_same_pk_in_txn () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v text)");
  ignore (exec s "INSERT INTO t VALUES (1, 'old')");
  ignore (exec s "BEGIN");
  ignore (exec s "DELETE FROM t WHERE k = 1");
  ignore (exec s "INSERT INTO t VALUES (1, 'new')");
  ignore (exec s "COMMIT");
  match rows s "SELECT v FROM t WHERE k = 1" with
  | [ [| Datum.Text "new" |] ] -> ()
  | _ -> Alcotest.fail "replace within txn failed"

(* --- function library --- *)

let test_string_functions () =
  let _, s = fresh () in
  (match one s "SELECT substr('postgresql', 1, 8)" with
   | Datum.Text "postgres" -> ()
   | d -> Alcotest.fail (Datum.to_display d));
  (match one s "SELECT substr('abc', 10)" with
   | Datum.Text "" -> ()
   | d -> Alcotest.fail (Datum.to_display d));
  Alcotest.(check int) "strpos hit" 5 (one_int s "SELECT strpos('distributed', 'r')");
  Alcotest.(check int) "strpos miss" 0 (one_int s "SELECT strpos('abc', 'z')");
  (match one s "SELECT upper('mixED') || lower('CaSe')" with
   | Datum.Text "MIXEDcase" -> ()
   | d -> Alcotest.fail (Datum.to_display d));
  Alcotest.(check int) "length" 5 (one_int s "SELECT length('citus')");
  match one s "SELECT md5('x')" with
  | Datum.Text h -> Alcotest.(check int) "md5 hex length" 32 (String.length h)
  | d -> Alcotest.fail (Datum.to_display d)

let test_numeric_functions () =
  let _, s = fresh () in
  Alcotest.(check int) "abs int" 7 (one_int s "SELECT abs(0 - 7)");
  (match one s "SELECT floor(3.7)" with
   | Datum.Float f -> Alcotest.(check (float 0.001)) "floor" 3.0 f
   | d -> Alcotest.fail (Datum.to_display d));
  (match one s "SELECT power(2.0, 10.0)" with
   | Datum.Float f -> Alcotest.(check (float 0.001)) "power" 1024.0 f
   | d -> Alcotest.fail (Datum.to_display d));
  Alcotest.(check int) "greatest" 9 (one_int s "SELECT greatest(3, 9, NULL, 1)");
  Alcotest.(check int) "least" 1 (one_int s "SELECT least(3, 9, NULL, 1)");
  Alcotest.(check int) "mod function" 2 (one_int s "SELECT mod(17, 5)")

let test_json_builders () =
  let _, s = fresh () in
  match one s "SELECT jsonb_build_object('a', 1, 'b', 'x')" with
  | Datum.Json j ->
    Alcotest.(check bool) "field a" true
      (Json.equal (Option.get (Json.get_field j "a")) (Json.Num 1.0));
    Alcotest.(check bool) "field b" true
      (Json.equal (Option.get (Json.get_field j "b")) (Json.Str "x"))
  | d -> Alcotest.fail (Datum.to_display d)

let test_unknown_function_errors () =
  let _, s = fresh () in
  expect_error s "SELECT no_such_function(1)"

let test_strict_functions_propagate_null () =
  let _, s = fresh () in
  (match one s "SELECT length(NULL)" with
   | Datum.Null -> ()
   | d -> Alcotest.fail (Datum.to_display d));
  match one s "SELECT md5(NULL)" with
  | Datum.Null -> ()
  | d -> Alcotest.fail (Datum.to_display d)

(* --- subqueries --- *)

let test_uncorrelated_subquery_evaluated_once () =
  (* InitPlan semantics: the filter subquery must not re-execute per row.
     With 2000 outer rows and a 500-row inner table, per-row re-execution
     would do ~1M row visits; the meter proves it stays linear. *)
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE big (k bigint)");
  ignore (exec s "CREATE TABLE lookup (k bigint)");
  ignore (exec s "BEGIN");
  for i = 1 to 2000 do
    ignore (exec s (Printf.sprintf "INSERT INTO big VALUES (%d)" i))
  done;
  for i = 1 to 500 do
    ignore (exec s (Printf.sprintf "INSERT INTO lookup VALUES (%d)" (i * 2)))
  done;
  ignore (exec s "COMMIT");
  let before = Meter.read (Instance.meter inst) in
  Alcotest.(check int) "result" 500
    (one_int s "SELECT count(*) FROM big WHERE k IN (SELECT k FROM lookup)");
  let d = Meter.diff ~after:(Meter.read (Instance.meter inst)) ~before in
  Alcotest.(check bool) "linear work, not quadratic" true
    (d.Meter.rows_scanned < 6000)

let test_scalar_subquery_in_filter () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (v bigint)");
  ignore (exec s "INSERT INTO t VALUES (1), (5), (9)");
  Alcotest.(check int) "above average" 1
    (one_int s
       "SELECT count(*) FROM t WHERE v > (SELECT avg(v) FROM t) + 1")

(* --- json --- *)

let test_json_null_propagation () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (d jsonb)");
  ignore (exec s {|INSERT INTO t VALUES ('{"a": {"b": 1}}'), (NULL)|});
  Alcotest.(check int) "missing key is sql null" 1
    (one_int s "SELECT count(*) FROM t WHERE d->'missing' IS NULL AND d IS NOT NULL");
  Alcotest.(check int) "chained access" 1
    (one_int s "SELECT count(*) FROM t WHERE (d->'a'->>'b')::bigint = 1")

let test_json_deep_nesting () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (d jsonb)");
  ignore
    (exec s {|INSERT INTO t VALUES ('{"a": [{"b": [1, 2, {"c": "deep"}]}]}')|});
  match rows s "SELECT d->'a'->0->'b'->2->>'c' FROM t" with
  | [ [| Datum.Text "deep" |] ] -> ()
  | _ -> Alcotest.fail "deep access failed"

(* A literal the lexer cannot read is a parse error at its offset, not
   a bare exception out of [exec], and it leaves the session usable. *)
let test_bad_literals_are_parse_errors () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE items (key bigint PRIMARY KEY, v text)");
  List.iter
    (fun (sql, want) ->
      match exec s sql with
      | exception Sqlfront.Parser.Parse_error m -> Alcotest.(check string) sql want m
      | _ -> Alcotest.fail ("should have failed: " ^ sql))
    [
      ( "SELECT * FROM items WHERE key = 99999999999999999999",
        "integer out of range at offset 32" );
      ("SELECT 1e", "malformed number at offset 7");
    ];
  Alcotest.(check int) "session still serves" 0
    (List.length (rows s "SELECT * FROM items WHERE key = 1"))

(* Templates hold no catalog state: DDL between two hits changes what
   the next hit returns, not whether it hits. *)
let test_statement_cache_across_ddl () =
  let inst, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v text)");
  ignore (exec s "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
  let read k = rows s (Printf.sprintf "SELECT * FROM t WHERE k = %d" k) in
  let hits () =
    (Sqlfront.Stmt_cache.stats (Instance.stmt_cache inst)).Sqlfront.Stmt_cache.hits
  in
  ignore (read 1);
  ignore (read 2);
  let before = hits () in
  Alcotest.(check int) "two columns" 2 (Array.length (List.hd (read 1)));
  ignore (exec s "ALTER TABLE t ADD COLUMN w bigint");
  Alcotest.(check int) "three columns after DDL" 3 (Array.length (List.hd (read 2)));
  ignore (exec s "DROP TABLE t");
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY)");
  ignore (exec s "INSERT INTO t VALUES (2)");
  Alcotest.(check int) "one column after re-create" 1 (Array.length (List.hd (read 2)));
  Alcotest.(check int) "every read after admission hit" (before + 3) (hits ())

(* --- kept plans (prepared statements run from a plan built once) --- *)

let plan_table ?(buffer_pages = 100_000) () =
  let inst = Instance.create ~buffer_pages ~name:"pg" () in
  let s = Instance.connect inst in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint, w text)");
  ignore (exec s "CREATE INDEX t_v ON t USING BTREE (v)");
  for k = 0 to 39 do
    ignore
      (exec s (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 'w%d')" k (k mod 7) (k mod 5)))
  done;
  (inst, s)

(* Run [name] (SQL text with [$k]) from the kept plan, as a coordinator's
   bound execute does. *)
let bound s ?(parse = true) name text values =
  Instance.exec_bound s ~close:[] ?parse:(if parse then Some text else None) ~name values

(* Kept plans of prepared statements, statement-cache templates' (the
   set-up's INSERT texts among them) left out *)
let builds inst =
  (Instance.plan_stats inst).Executor.builds - (Instance.template_plan_stats inst).builds

let invalidations inst =
  (Instance.plan_stats inst).Executor.invalidations
  - (Instance.template_plan_stats inst).invalidations

let ints rs = List.map (function [| Datum.Int k |] -> k | _ -> -1) rs.Instance.rows

let test_subquery_parameter () =
  let _, s = fresh () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "INSERT INTO t VALUES (1, 10), (2, 20)");
  let literal = rows s "SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v = 10)" in
  Alcotest.(check int) "literal form" 1 (List.length literal);
  ignore (exec s "PREPARE p AS SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v = $1)");
  Alcotest.(check (list int)) "EXECUTE binds the subquery" [ 1 ] (ints (exec s "EXECUTE p(10)"));
  Alcotest.(check (list int)) "and reads each execution's value" [ 2 ] (ints (exec s "EXECUTE p(20)"));
  Alcotest.(check (list int)) "scalar subquery" [ 2 ]
    (ints (bound s "q" "SELECT k FROM t WHERE v = (SELECT max(v) FROM t WHERE k <= $1)" [ Datum.Int 5 ]))

let test_plan_built_once () =
  let inst, s = plan_table () in
  let before = Instance.plan_stats inst in
  let text = "SELECT v FROM t WHERE k = $1" in
  for i = 0 to 999 do
    let r = bound s ~parse:(i = 0) "p" text [ Datum.Int (i mod 40) ] in
    Alcotest.(check (list int)) "row of this execution's key" [ i mod 40 mod 7 ] (ints r)
  done;
  let after = Instance.plan_stats inst in
  Alcotest.(check int) "one plan built" 1 (after.builds - before.builds);
  Alcotest.(check int) "1,000 runs" 1000 (after.runs - before.runs)

(* A statement no generic plan serves (a [$k] in a grouped select's
   output, a [$k] LIKE pattern) keeps the plan it bound while the values
   stay the same, the same constructor and value: [0.] and [-0.] print
   apart, as do [1] and [1.], so each change plans again. *)
let test_bound_plan_kept_per_values () =
  let inst, s = plan_table () in
  let runs =
    [ ("grouped", [ Datum.Float 0. ], "0"); ("grouped", [ Datum.Float 0. ], "0");
      ("grouped", [ Datum.Float (-0.) ], "-0"); ("half", [ Datum.Int 1 ], "0");
      ("half", [ Datum.Float 1. ], "0.5"); ("grouped", [ Datum.Text "a" ], "a");
      ("grouped", [ Datum.Text "a" ], "a"); ("like", [ Datum.Text "w1%" ], "8");
      ("like", [ Datum.Text "w1%" ], "8"); ("like", [ Datum.Text "W%" ], "0");
      ("like", [ Datum.Text "w%" ], "40") ]
  in
  let text = function
    | "grouped" -> "SELECT $1, count(*) FROM t"
    | "half" -> "SELECT $1 / 2, count(*) FROM t"
    | _ -> "SELECT count(*) FROM t WHERE w LIKE $1"
  in
  let before = Instance.plan_stats inst in
  List.iteri
    (fun i (name, values, want) ->
      let parse = not (List.exists (fun (n, _, _) -> n = name) (List.filteri (fun j _ -> j < i) runs)) in
      match (bound s ~parse name (text name) values).Instance.rows with
      | [ [| v; _ |] ] | [ [| v |] ] -> Alcotest.(check string) (Printf.sprintf "run %d" i) want (Datum.to_display v)
      | _ -> Alcotest.fail "one row expected")
    runs;
  let after = Instance.plan_stats inst in
  Alcotest.(check int) "runs" 11 (after.runs - before.runs);
  Alcotest.(check int) "runs that planned" 8 (after.planned_runs - before.planned_runs)

(* DDL between two executions rebuilds the plan: the new index is used,
   the new column is read, the re-created table is the one scanned. *)
let test_plan_rebuilt_by_ddl () =
  let inst, s = plan_table () in
  ignore (exec s "CREATE TABLE u (k bigint PRIMARY KEY, a bigint)");
  for k = 0 to 9 do
    ignore (exec s (Printf.sprintf "INSERT INTO u VALUES (%d, %d)" k (k mod 3)))
  done;
  let probes () = (Meter.read (Instance.meter inst)).Meter.index_probes in
  ignore (exec s "PREPARE by_a AS SELECT k FROM u WHERE a = $1 ORDER BY k");
  Alcotest.(check (list int)) "seq scan" [ 1; 4; 7 ] (ints (exec s "EXECUTE by_a(1)"));
  let p0 = probes () in
  ignore (exec s "CREATE INDEX u_a ON u USING BTREE (a)");
  Alcotest.(check (list int)) "same rows" [ 2; 5; 8 ] (ints (exec s "EXECUTE by_a(2)"));
  Alcotest.(check int) "through the new index" 1 (probes () - p0);
  ignore (exec s "PREPARE all_u AS SELECT * FROM u WHERE k = $1");
  Alcotest.(check int) "two columns" 2 (Array.length (List.hd (rows s "EXECUTE all_u(3)")));
  ignore (exec s "ALTER TABLE u ADD COLUMN b bigint DEFAULT 7");
  (match rows s "EXECUTE all_u(3)" with
   | [ [| _; _; Datum.Int 7 |] ] -> ()
   | _ -> Alcotest.fail "the added column is read");
  let builds0 = builds inst and invalid0 = invalidations inst in
  ignore (exec s "DROP TABLE u");
  ignore (exec s "CREATE TABLE u (k bigint PRIMARY KEY, a bigint)");
  ignore (exec s "INSERT INTO u VALUES (3, 30)");
  (match rows s "EXECUTE all_u(3)" with
   | [ [| Datum.Int 3; Datum.Int 30 |] ] -> ()
   | _ -> Alcotest.fail "the re-created table is read");
  Alcotest.(check int) "rebuilt once" 1 (builds inst - builds0);
  Alcotest.(check int) "one invalidation" 1 (invalidations inst - invalid0)

(* now() and random() read the execution they run in, not the one the
   plan was built for. *)
let test_plan_reads_execution () =
  let inst, s = plan_table () in
  let plan =
    Executor.prepare (Instance.catalog inst)
      (Sqlfront.Parser.parse_statement "SELECT now(), random() FROM t WHERE k = $1")
  in
  let run ~now rng =
    let ctx = { (Instance.make_ctx ~params:[| Datum.Int 1 |] s) with Executor.now; rng } in
    match (Executor.run plan ctx).Instance.rows with
    | [ [| Datum.Timestamp t; Datum.Float r |] ] -> (t, r)
    | _ -> Alcotest.fail "one row of now(), random()"
  in
  let rng = Random.State.make [| 7 |] in
  let expect = Random.State.copy rng in
  let t1, r1 = run ~now:1.0 rng in
  let t2, r2 = run ~now:2.0 rng in
  Alcotest.(check (float 0.)) "first clock" 1.0 t1;
  Alcotest.(check (float 0.)) "second clock" 2.0 t2;
  Alcotest.(check (float 0.)) "first draw" (Random.State.float expect 1.0) r1;
  Alcotest.(check (float 0.)) "second draw" (Random.State.float expect 1.0) r2

(* A statement that met a lock re-runs the same plan with the same
   values once the holder is gone. *)
let test_plan_would_block_retry () =
  let inst, s1 = plan_table () in
  let s2 = Instance.connect inst in
  ignore (exec s1 "BEGIN");
  ignore (exec s1 "UPDATE t SET v = 100 WHERE k = 5");
  let text = "UPDATE t SET v = $1 WHERE k = $2" and values = [ Datum.Int 200; Datum.Int 5 ] in
  (match bound s2 "upd" text values with
   | exception Executor.Would_block _ -> ()
   | _ -> Alcotest.fail "expected Would_block");
  ignore (exec s1 "COMMIT");
  let b = builds inst in
  Alcotest.(check int) "retry updates" 1 (bound s2 ~parse:false "upd" text values).Instance.affected;
  Alcotest.(check int) "with the kept plan" 0 (builds inst - b);
  Alcotest.(check int) "retry's value" 200 (one_int s1 "SELECT v FROM t WHERE k = 5")

(* A text served from its statement-cache template runs the template's
   kept plan: built at the first hit, then run by every later one. *)
let test_template_plan_built_once () =
  let inst, s = plan_table () in
  let text k = Printf.sprintf "SELECT v FROM t WHERE k = %d" k in
  (* seen, then admitted *)
  ignore (exec s (text 0));
  ignore (exec s (text 1));
  let hits () =
    (Sqlfront.Stmt_cache.stats (Instance.stmt_cache inst)).Sqlfront.Stmt_cache.hits
  in
  let before = Instance.plan_stats inst and tpl0 = Instance.template_plan_stats inst in
  let hits0 = hits () in
  for i = 0 to 99 do
    Alcotest.(check (list int)) "row of this text's key" [ i mod 40 mod 7 ]
      (ints (exec s (text (i mod 40))))
  done;
  let after = Instance.plan_stats inst in
  Alcotest.(check int) "100 hits" 100 (hits () - hits0);
  Alcotest.(check int) "one plan built" 1 (after.builds - before.builds);
  Alcotest.(check int) "100 runs" 100 (after.runs - before.runs);
  let tpl = Instance.template_plan_stats inst in
  Alcotest.(check (pair int int)) "all of them the template's" (1, 100)
    (tpl.builds - tpl0.builds, tpl.runs - tpl0.runs)

(* One kept statement run locally on two nodes in turn, as a
   reference-table read is: each node's plan is built once and kept. *)
let test_plan_per_node () =
  let a, sa = plan_table () and b, sb = plan_table () in
  let text = "SELECT v FROM t WHERE k = $1" in
  let prep = Instance.prepared ~text:(Lazy.from_val text) (Sqlfront.Parser.parse_statement text) in
  let a0 = builds a and b0 = builds b in
  for i = 0 to 19 do
    let s = if i mod 2 = 0 then sa else sb in
    Alcotest.(check (list int)) "row of this execution's key" [ i mod 7 ]
      (ints (Instance.exec_local_kept s prep [ Datum.Int i ]))
  done;
  Alcotest.(check (pair int int)) "one plan built on each node" (1, 1)
    (builds a - a0, builds b - b0)

(* Shapes the plan cache can send as bound executes, and some it cannot
   keep generic (an ordinal, a LIKE pattern): run from a kept plan, each
   must match binding the values and running the statement, and sending
   the bound statement as literal text served from its statement-cache
   template. *)
let plan_shapes =
  [|
    ("SELECT k, v, w FROM t WHERE k = $1", 1);
    ("SELECT k FROM t WHERE v = $1 ORDER BY k", 1);
    ("SELECT count(*), sum(k) FROM t WHERE v = $1 AND k > $2", 2);
    ("SELECT k, w FROM t WHERE w = $1 ORDER BY k LIMIT $2", 2);
    ("SELECT k FROM t WHERE k IN ($1, $2) ORDER BY k", 2);
    ("SELECT k FROM t WHERE k = $1 AND v = $2", 2);
    ("SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v = $1) ORDER BY k", 1);
    ("SELECT v, count(*) FROM t WHERE k < $1 GROUP BY v ORDER BY v", 1);
    ("SELECT k, v FROM t WHERE k < $1 ORDER BY $2 DESC, k", 2);
    ("SELECT k FROM t WHERE w LIKE $1 ORDER BY k", 1);
    ("UPDATE t SET v = $1 WHERE k = $2", 2);
    ("UPDATE t SET w = $1 WHERE v = $2", 2);
    ("DELETE FROM t WHERE k = $1", 1);
    ("INSERT INTO t (k, v, w) VALUES ($1, $2, $3) ON CONFLICT DO NOTHING", 3);
  |]

let prop_kept_plan_matches_bound =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        map (fun i -> Datum.Int i) (int_range (-2) 45);
        return Datum.Null;
        map (fun i -> Datum.Text (string_of_int i)) (int_range 0 45);
        map (fun i -> Datum.Text (Printf.sprintf "w%d" i)) (int_range 0 5);
        map (fun i -> Datum.Float (float_of_int i)) (int_range 0 8);
        oneofl [ Datum.Text "w%"; Datum.Text "%3"; Datum.Int 1; Datum.Int 2 ];
      ]
  in
  let step =
    let* i = int_bound (Array.length plan_shapes - 1) in
    let* values = list_repeat (snd plan_shapes.(i)) value in
    return (i, values)
  in
  let print (i, vs) =
    fst plan_shapes.(i) ^ " <- " ^ String.concat ", " (List.map Datum.to_display vs)
  in
  QCheck2.Test.make ~name:"kept plan = bind then exec_ast" ~count:400
    ~print:QCheck2.Print.(list print)
    (list_size (int_range 1 14) step)
    (fun steps ->
      let ia, sa = plan_table ~buffer_pages:6 () and ib, sb = plan_table ~buffer_pages:6 () in
      let ic, sc = plan_table ~buffer_pages:6 () in
      (* two sightings of the text's skeleton admit it (a lookup parses,
         it runs nothing), so [exec] serves the text from its template
         unless the skeleton is uncacheable (a negative number) *)
      let templated text =
        for _ = 1 to 2 do
          ignore (Sqlfront.Stmt_cache.lookup (Instance.stmt_cache ic) text)
        done;
        Instance.exec sc text
      in
      let outcome f =
        match f () with
        | (r : Instance.result) -> Ok (r.columns, r.rows, r.affected, r.tag)
        | exception Instance.Session_error m -> Error m
      in
      let parsed = Hashtbl.create 8 in
      List.for_all
        (fun (i, values) ->
          let text = fst plan_shapes.(i) and name = Printf.sprintf "s%d" i in
          let parse = not (Hashtbl.mem parsed i) in
          Hashtbl.replace parsed i ();
          let kept = outcome (fun () -> bound sa ~parse name text values) in
          let bound_stmt = Sqlfront.Ast.bind_params values (Sqlfront.Parser.parse_statement text) in
          let direct = outcome (fun () -> Instance.exec_ast sb bound_stmt) in
          let literal = outcome (fun () -> templated (Sqlfront.Deparse.statement bound_stmt)) in
          let meter = Meter.read (Instance.meter ia)
          and pool = Storage.Buffer_pool.stats (Instance.buffer_pool ia) in
          kept = direct && kept = literal
          && meter = Meter.read (Instance.meter ib)
          && meter = Meter.read (Instance.meter ic)
          && pool = Storage.Buffer_pool.stats (Instance.buffer_pool ib)
          && pool = Storage.Buffer_pool.stats (Instance.buffer_pool ic))
        steps
      && builds ia <= Hashtbl.length parsed)

let () =
  Alcotest.run "engine_edge"
    [
      ( "nulls",
        [
          Alcotest.test_case "comparisons" `Quick test_null_comparisons;
          Alcotest.test_case "three-valued logic" `Quick
            test_null_three_valued_logic;
          Alcotest.test_case "aggregates" `Quick test_null_in_aggregates;
          Alcotest.test_case "group by" `Quick test_null_in_group_by;
          Alcotest.test_case "ordering" `Quick test_null_ordering;
          Alcotest.test_case "in-list" `Quick test_in_list_with_null;
        ] );
      ( "errors",
        [
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "unknown names" `Quick test_unknown_column_and_table;
          Alcotest.test_case "ambiguous column" `Quick test_ambiguous_column;
          Alcotest.test_case "column resolution" `Quick test_resolve_columns;
          Alcotest.test_case "cast error aborts" `Quick
            test_cast_error_aborts_autocommit_txn;
          Alcotest.test_case "error in block" `Quick
            test_error_inside_block_keeps_prior_writes_pending;
          Alcotest.test_case "bad literals are parse errors" `Quick
            test_bad_literals_are_parse_errors;
          Alcotest.test_case "statement cache across DDL" `Quick
            test_statement_cache_across_ddl;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "int/float mixing" `Quick test_int_float_mixing;
          Alcotest.test_case "concat" `Quick test_text_concat;
          Alcotest.test_case "case without else" `Quick
            test_case_without_else_is_null;
          Alcotest.test_case "coalesce/nullif" `Quick test_coalesce_nullif;
          Alcotest.test_case "like corners" `Quick test_like_corner_cases;
          QCheck_alcotest.to_alcotest prop_like_matches_reference;
          QCheck_alcotest.to_alcotest prop_like_matches_two_pointer;
          Alcotest.test_case "like null subject" `Quick test_like_null_subject;
          Alcotest.test_case "like $k per execution" `Quick test_like_param_per_execution;
          Alcotest.test_case "between inclusive" `Quick test_between_inclusive;
          Alcotest.test_case "offset beyond rows" `Quick test_offset_beyond_rows;
          Alcotest.test_case "multi-key order" `Quick test_multi_key_ordering;
        ] );
      ( "index_churn",
        [
          Alcotest.test_case "updates visible via index" `Quick
            test_secondary_index_sees_updates;
          Alcotest.test_case "correct after vacuum" `Quick
            test_index_correct_after_vacuum;
          Alcotest.test_case "autovacuum" `Quick test_autovacuum_via_maintenance;
        ] );
      ( "copy",
        [
          Alcotest.test_case "field mismatch" `Quick test_copy_field_count_mismatch;
          Alcotest.test_case "column subset" `Quick test_copy_column_subset;
        ] );
      ( "visibility",
        [
          Alcotest.test_case "own update chain" `Quick
            test_own_uncommitted_update_chain;
          Alcotest.test_case "read committed" `Quick
            test_read_committed_sees_new_data_per_statement;
          Alcotest.test_case "delete+insert same pk" `Quick
            test_delete_then_insert_same_pk_in_txn;
        ] );
      ( "functions",
        [
          Alcotest.test_case "strings" `Quick test_string_functions;
          Alcotest.test_case "numerics" `Quick test_numeric_functions;
          Alcotest.test_case "json builders" `Quick test_json_builders;
          Alcotest.test_case "unknown errors" `Quick test_unknown_function_errors;
          Alcotest.test_case "strict null" `Quick
            test_strict_functions_propagate_null;
        ] );
      ( "plans",
        [
          Alcotest.test_case "subquery parameter" `Quick test_subquery_parameter;
          Alcotest.test_case "built once" `Quick test_plan_built_once;
          Alcotest.test_case "bound plan kept per values" `Quick test_bound_plan_kept_per_values;
          Alcotest.test_case "template built once" `Quick test_template_plan_built_once;
          Alcotest.test_case "rebuilt by DDL" `Quick test_plan_rebuilt_by_ddl;
          Alcotest.test_case "reads the execution" `Quick test_plan_reads_execution;
          Alcotest.test_case "would-block retry" `Quick test_plan_would_block_retry;
          Alcotest.test_case "kept per node" `Quick test_plan_per_node;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
            prop_kept_plan_matches_bound;
        ] );
      ( "subqueries",
        [
          Alcotest.test_case "initplan once" `Quick
            test_uncorrelated_subquery_evaluated_once;
          Alcotest.test_case "scalar in filter" `Quick
            test_scalar_subquery_in_filter;
        ] );
      ( "json",
        [
          Alcotest.test_case "null propagation" `Quick test_json_null_propagation;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
        ] );
    ]
