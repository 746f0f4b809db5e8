(* Parser / deparser tests, including the round-trip property the Citus
   planners depend on (they deparse rewritten trees and workers re-parse). *)

open Sqlfront

let roundtrip_stmt src =
  let ast = Parser.parse_statement src in
  let text = Deparse.statement ast in
  let ast2 = Parser.parse_statement text in
  if ast <> ast2 then
    Alcotest.fail
      (Printf.sprintf "round trip changed AST:\n  src: %s\n  deparsed: %s" src
         text)

let test_select_simple () =
  match Parser.parse_statement "SELECT a, b FROM t WHERE a = 1" with
  | Ast.Select_stmt s ->
    Alcotest.(check int) "projections" 2 (List.length s.projections);
    Alcotest.(check bool) "has where" true (s.where <> None)
  | _ -> Alcotest.fail "expected select"

let test_select_star () =
  match Parser.parse_statement "SELECT * FROM t" with
  | Ast.Select_stmt { projections = [ Ast.Star ]; _ } -> ()
  | _ -> Alcotest.fail "expected star projection"

let test_qualified_star () =
  match Parser.parse_statement "SELECT t.* FROM t" with
  | Ast.Select_stmt { projections = [ Ast.Star_of "t" ]; _ } -> ()
  | _ -> Alcotest.fail "expected qualified star"

let test_operator_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match Parser.parse_expression "1 + 2 * 3" with
  | Ast.Bin (Add, Const (Int 1), Bin (Mul, Const (Int 2), Const (Int 3))) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_and_or_precedence () =
  match Parser.parse_expression "a = 1 OR b = 2 AND c = 3" with
  | Ast.Or (_, Ast.And (_, _)) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_json_operators () =
  match Parser.parse_expression "data->'payload'->>'size'" with
  | Ast.Json_get (Ast.Json_get (Ast.Column (None, "data"), _, false), _, true)
    -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_cast_chain () =
  match Parser.parse_expression "(data->>'n')::bigint" with
  | Ast.Cast (Ast.Json_get _, Datum.TInt) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_date_cast_becomes_function () =
  match Parser.parse_expression "(data->>'created_at')::date" with
  | Ast.Func ("sql_date", [ Ast.Json_get _ ]) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_count_star () =
  match Parser.parse_expression "count(*)" with
  | Ast.Agg { agg_name = "count"; agg_arg = None; agg_distinct = false } -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_agg_distinct () =
  match Parser.parse_expression "count(DISTINCT user_id)" with
  | Ast.Agg { agg_name = "count"; agg_arg = Some _; agg_distinct = true } -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_joins () =
  match
    Parser.parse_statement
      "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id"
  with
  | Ast.Select_stmt
      {
        from =
          [
            Ast.Join
              { kind = Ast.Left_outer; left = Ast.Join { kind = Ast.Inner; _ }; _ };
          ];
        _;
      } ->
    ()
  | _ -> Alcotest.fail "expected nested joins"

let test_subquery_in_from () =
  match
    Parser.parse_statement
      "SELECT x FROM (SELECT a AS x FROM t GROUP BY a) AS sub"
  with
  | Ast.Select_stmt { from = [ Ast.Subselect (_, "sub") ]; _ } -> ()
  | _ -> Alcotest.fail "expected subselect"

let test_insert_values () =
  match
    Parser.parse_statement "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
  with
  | Ast.Insert { columns = Some [ "a"; "b" ]; source = Ast.Values [ _; _ ]; _ }
    -> ()
  | _ -> Alcotest.fail "expected insert values"

let test_insert_select () =
  match
    Parser.parse_statement
      "INSERT INTO rollup (day, total) SELECT sql_date(d), count(*) FROM raw GROUP BY sql_date(d)"
  with
  | Ast.Insert { source = Ast.Query _; _ } -> ()
  | _ -> Alcotest.fail "expected insert..select"

let test_create_table_pk () =
  match
    Parser.parse_statement
      "CREATE TABLE t (id bigint PRIMARY KEY, v text NOT NULL, d jsonb DEFAULT '{}')"
  with
  | Ast.Create_table { primary_key = [ "id" ]; columns; _ } ->
    Alcotest.(check int) "columns" 3 (List.length columns)
  | _ -> Alcotest.fail "expected create table"

let test_create_table_composite_pk () =
  match
    Parser.parse_statement
      "CREATE TABLE t (w bigint, d bigint, v text, PRIMARY KEY (w, d))"
  with
  | Ast.Create_table { primary_key = [ "w"; "d" ]; _ } -> ()
  | _ -> Alcotest.fail "expected composite pk"

let test_create_index_gin_expression () =
  match
    Parser.parse_statement
      "CREATE INDEX idx ON github_events USING GIN ((jsonb_path_text(data, 'payload')) gin_trgm_ops)"
  with
  | Ast.Create_index { using = Ast.Gin_trgm; key_expr = Some _; _ } -> ()
  | _ -> Alcotest.fail "expected gin expression index"

let test_twophase_statements () =
  (match Parser.parse_statement "PREPARE TRANSACTION 'citus_0_12'" with
   | Ast.Prepare_transaction "citus_0_12" -> ()
   | _ -> Alcotest.fail "prepare");
  (match Parser.parse_statement "COMMIT PREPARED 'citus_0_12'" with
   | Ast.Commit_prepared _ -> ()
   | _ -> Alcotest.fail "commit prepared");
  match Parser.parse_statement "ROLLBACK PREPARED 'citus_0_12'" with
  | Ast.Rollback_prepared _ -> ()
  | _ -> Alcotest.fail "rollback prepared"

let test_copy () =
  match Parser.parse_statement "COPY github_events (event_id, data) FROM STDIN" with
  | Ast.Copy_from { table = "github_events"; columns = Some [ _; _ ] } -> ()
  | _ -> Alcotest.fail "expected copy"

let test_call () =
  match Parser.parse_statement "CALL new_order(1, 5, 42)" with
  | Ast.Call { proc = "new_order"; args = [ _; _; _ ] } -> ()
  | _ -> Alcotest.fail "expected call"

let test_case_expr () =
  match Parser.parse_expression "CASE WHEN a = 1 THEN 'one' ELSE 'other' END" with
  | Ast.Case ([ _ ], Some _) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_between_and_in () =
  roundtrip_stmt "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3)";
  match Parser.parse_expression "x NOT IN (1, 2)" with
  | Ast.In_list (_, _, true) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_ilike () =
  match Parser.parse_expression "msg ILIKE '%postgres%'" with
  | Ast.Like { ci = true; negated = false; _ } -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_exists_subquery () =
  match
    Parser.parse_expression "EXISTS (SELECT 1 FROM t WHERE t.id = o.id)"
  with
  | Ast.Exists (_, false) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_scalar_subquery () =
  match Parser.parse_expression "(SELECT max(v) FROM t)" with
  | Ast.Scalar_subquery _ -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_params () =
  match Parser.parse_statement "SELECT * FROM t WHERE id = $1 AND v > $2" with
  | Ast.Select_stmt { where = Some w; _ } ->
    let count =
      Ast.fold_expr
        (fun acc e -> match e with Ast.Param _ -> acc + 1 | _ -> acc)
        0 w
    in
    Alcotest.(check int) "two params" 2 count
  | _ -> Alcotest.fail "expected select"

let test_cte_desugars_to_subselect () =
  match
    Parser.parse_statement
      "WITH top AS (SELECT a FROM t WHERE a > 5) SELECT count(*) FROM top"
  with
  | Ast.Select_stmt { from = [ Ast.Subselect (inner, "top") ]; _ } ->
    Alcotest.(check bool) "inner where kept" true (inner.Ast.where <> None)
  | _ -> Alcotest.fail "cte not desugared"

let test_cte_multiple_and_alias () =
  match
    Parser.parse_statement
      "WITH x AS (SELECT 1 AS v), y AS (SELECT 2 AS w)        SELECT * FROM x AS xx JOIN y ON xx.v = y.w"
  with
  | Ast.Select_stmt
      {
        from =
          [ Ast.Join { left = Ast.Subselect (_, "xx"); right = Ast.Subselect (_, "y"); _ } ];
        _;
      } ->
    ()
  | _ -> Alcotest.fail "multi-cte failed"

let test_recursive_cte_rejected () =
  match
    Parser.parse_statement
      "WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r"
  with
  | exception Parser.Parse_error m ->
    Alcotest.(check bool) "clear message" true
      (Sqlfront.Deparse.expr (Ast.Const (Datum.Text m)) <> "")
  | _ -> Alcotest.fail "recursive CTE should be rejected"

(* Error texts name the offending token and how many tokens came before
   it. The lexer ends every list with <eof> and no production consumes
   it, so running out of input reports <eof>. *)
let test_parse_error_positions () =
  List.iter
    (fun (src, want) ->
      match Parser.parse_statement src with
      | exception Parser.Parse_error m -> Alcotest.(check string) src want m
      | _ -> Alcotest.fail (Printf.sprintf "should reject %S" src))
    [
      ("SELECT FROM", "expected expression (at token 1: FROM)");
      ("SELECT 1 2", "trailing input after statement (at token 2: 2)");
      ("SELECT 1;;", "trailing input after statement (at token 3: ;)");
      ("SELECT t.* FROM", "expected identifier (at token 5: <eof>)");
      ("INSERT INTO t VALUES (1", "expected ) (at token 6: <eof>)");
      ("CASE", "expected a statement (at token 0: CASE)");
      ( "SELECT * FROM items WHERE key = 99999999999999999999",
        "integer out of range at offset 32" );
      ("SELECT 1e", "malformed number at offset 7");
      ("SELECT 2.5E+", "malformed number at offset 7");
    ];
  match Parser.parse_expression "a +" with
  | exception Parser.Parse_error m ->
    Alcotest.(check string) "expression" "expected expression (at token 2: <eof>)" m
  | _ -> Alcotest.fail "should reject a dangling operator"

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Parser.parse_statement bad with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "should reject %S" bad))
    [
      "SELECT FROM";
      "SELECT * FROM";
      "INSERT t VALUES (1)";
      "UPDATE t SET";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t GROUP";
      "CREATE TABLE t";
      "SELECT 1 2";
      "SELECT * FROM items WHERE key = 99999999999999999999";
      "SELECT 1e";
    ]

(* --- lexer --- *)

let test_lexer_comments_and_whitespace () =
  match Parser.parse_statement "SELECT 1 -- trailing comment\n -- another\n" with
  | Ast.Select_stmt _ -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_quoted_identifier () =
  (* quoted identifiers preserve case and may collide with keywords *)
  match Parser.parse_expression "\"Select\"" with
  | Ast.Column (None, "Select") -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_lexer_string_escapes () =
  match Parser.parse_expression "'it''s ''quoted'''" with
  | Ast.Const (Datum.Text "it's 'quoted'") -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let test_lexer_numbers () =
  (match Parser.parse_expression "3.25" with
   | Ast.Const (Datum.Float f) -> Alcotest.(check (float 0.0001)) "float" 3.25 f
   | e -> Alcotest.fail (Deparse.expr e));
  (match Parser.parse_expression "2e3" with
   | Ast.Const (Datum.Float f) -> Alcotest.(check (float 0.1)) "exponent" 2000.0 f
   | e -> Alcotest.fail (Deparse.expr e));
  match Parser.parse_expression "1.5e-2" with
  | Ast.Const (Datum.Float f) -> Alcotest.(check (float 0.0001)) "neg exp" 0.015 f
  | e -> Alcotest.fail (Deparse.expr e)

let test_lexer_errors () =
  List.iter
    (fun bad ->
      match Lexer.tokenize bad with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "should reject %S" bad))
    [ "'unterminated"; "\"unterminated"; "SELECT @" ]

(* Every keyword is a keyword in any letter case; a word that merely
   starts with one is an identifier. *)
let test_lexer_keyword_case () =
  let mixed k = String.mapi (fun i c -> if i mod 2 = 0 then c else Char.lowercase_ascii c) k in
  List.iter
    (fun k ->
      List.iter
        (fun spelled ->
          match Lexer.tokenize spelled with
          | [ Lexer.Keyword got; Lexer.Eof ] ->
            Alcotest.(check string) (Printf.sprintf "%S" spelled) k got
          | _ -> Alcotest.failf "%S should lex as keyword %s" spelled k)
        [ k; String.lowercase_ascii k; mixed k ])
    Lexer.keywords;
  List.iter
    (fun w ->
      match Lexer.tokenize w with
      | [ Lexer.Ident got; Lexer.Eof ] ->
        Alcotest.(check string) w (String.lowercase_ascii w) got
      | _ -> Alcotest.failf "%S should lex as an identifier" w)
    [ "selected"; "order_line"; "indexes"; "Fromage"; "in_stock"; "keys";
      "set1"; "_select"; "SUMMARY" ]

let test_operator_tokenization () =
  (* != normalizes to <>; multi-char ops are not split *)
  Alcotest.(check (list string)) "every operator"
    [ "->>"; "->"; "::"; "<="; ">="; "<>"; "<>"; "||"; "="; "<"; ">"; "+";
      "-"; "/"; "%"; "-" ]
    (List.filter_map
       (function Lexer.Op o -> Some o | _ -> None)
       (Lexer.tokenize "->> -> :: <= >= <> != || = < > + - / % -1"));
  (match Parser.parse_expression "a != b" with
   | Ast.Cmp (Ast.Ne, _, _) -> ()
   | e -> Alcotest.fail (Deparse.expr e));
  match Parser.parse_expression "a->>'k'" with
  | Ast.Json_get (_, _, true) -> ()
  | e -> Alcotest.fail (Deparse.expr e)

let roundtrip_corpus =
  [
    "SELECT 1";
    "SELECT a, b AS bee FROM t";
    "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 10 OFFSET 5";
    "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 5";
    "SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y <> 3";
    "SELECT * FROM a CROSS JOIN b";
    "SELECT avg(v) FROM a JOIN b ON a.key = b.key";
    "SELECT sum(x + y * 2) FROM t WHERE NOT (a OR b)";
    "INSERT INTO t VALUES (1, 2.5, 'x', NULL, TRUE)";
    "INSERT INTO t (a) SELECT b FROM u WHERE b IS NOT NULL";
    "UPDATE t SET v = v + 1, w = 'x' WHERE key = 42";
    "DELETE FROM t WHERE key = 1";
    "CREATE TABLE t (a bigint, b text)";
    "DROP TABLE IF EXISTS t";
    "ALTER TABLE t ADD COLUMN c jsonb";
    "TRUNCATE t, u";
    "BEGIN";
    "COMMIT";
    "ROLLBACK";
    "VACUUM t";
    "CALL p(1, 'x')";
    "SELECT (data->>'created_at')::date FROM e GROUP BY (data->>'created_at')::date";
    "SELECT deviceid, avg(metric) AS device_avg FROM reports \
     WHERE build = 'x' GROUP BY deviceid, day";
    "SELECT CASE WHEN a = 1 THEN 1 ELSE 0 END FROM t";
    "SELECT * FROM t WHERE msg ILIKE '%postgres%'";
    "SELECT x FROM (SELECT a AS x FROM t) AS s WHERE x BETWEEN 1 AND 2";
    "WITH recent AS (SELECT a FROM t WHERE a > 5) SELECT count(*) FROM recent";
    "SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)";
    "SELECT * FROM t WHERE name NOT ILIKE '%test%'";
    "SELECT CASE WHEN a = 1 THEN CASE WHEN b = 2 THEN 'x' END ELSE 'y' END FROM t";
    "INSERT INTO t VALUES (1) ON CONFLICT DO NOTHING";
    "SELECT a FROM t ORDER BY b DESC, c ASC, a DESC OFFSET 3";
    "SELECT sum(a) FROM t HAVING sum(a) > 100";
  ]

let test_roundtrip_corpus () = List.iter roundtrip_stmt roundtrip_corpus

(* Property: generated random expressions round-trip through
   deparse/parse. *)
let rec expr_gen depth =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Ast.Const (Datum.Int i)) (int_range (-1000) 1000);
        map (fun s -> Ast.Const (Datum.Text s))
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        return (Ast.Const Datum.Null);
        map (fun b -> Ast.Const (Datum.Bool b)) bool;
        map (fun c -> Ast.Column (None, "c" ^ string_of_int c)) (int_range 0 5);
        map (fun i -> Ast.Param (i + 1)) (int_range 0 3);
      ]
  in
  if depth = 0 then leaf
  else
    let sub = expr_gen (depth - 1) in
    oneof
      [
        leaf;
        map2 (fun a b -> Ast.And (a, b)) sub sub;
        map2 (fun a b -> Ast.Or (a, b)) sub sub;
        map (fun a -> Ast.Not a) sub;
        map2 (fun a b -> Ast.Cmp (Ast.Le, a, b)) sub sub;
        map2 (fun a b -> Ast.Bin (Ast.Add, a, b)) sub sub;
        map2 (fun a b -> Ast.Bin (Ast.Concat, a, b)) sub sub;
        map (fun a -> Ast.Is_null (a, true)) sub;
        map (fun a -> Ast.Cast (a, Datum.TInt)) sub;
        map2
          (fun a items -> Ast.In_list (a, items, false))
          sub
          (list_size (int_range 1 3) sub);
        map (fun args -> Ast.Func ("coalesce", args)) (list_size (int_range 1 3) sub);
        map (fun a ->
            Ast.Agg { agg_name = "sum"; agg_arg = Some a; agg_distinct = false })
          sub;
      ]

let select_gen =
  let open QCheck2.Gen in
  let col = map (fun c -> Ast.Column (None, "c" ^ string_of_int c)) (int_range 0 3) in
  let lit = map (fun i -> Ast.Const (Datum.Int i)) (int_range 0 99) in
  let filter =
    oneof
      [
        map2 (fun a b -> Ast.Cmp (Ast.Eq, a, b)) col lit;
        map2 (fun a b -> Ast.And (Ast.Cmp (Ast.Lt, a, b), Ast.Is_null (a, false)))
          col lit;
        (* a subquery's literals are lifted and bound too *)
        map3
          (fun a b c ->
            Ast.In_subquery
              ( a,
                Ast.select_from "u" [ Ast.Proj (Ast.Column (None, "k"), None) ]
                  ~where:(Ast.Cmp (Ast.Eq, b, c)),
                false ))
          col col lit;
      ]
  in
  let agg =
    oneofl
      [
        Ast.Agg { agg_name = "count"; agg_arg = None; agg_distinct = false };
        Ast.Agg
          {
            agg_name = "sum";
            agg_arg = Some (Ast.Column (None, "c1"));
            agg_distinct = false;
          };
      ]
  in
  let* n_tables = int_range 1 2 in
  let from =
    if n_tables = 1 then [ Ast.Table { name = "t"; alias = None } ]
    else
      [
        Ast.Join
          {
            left = Ast.Table { name = "t"; alias = None };
            right = Ast.Table { name = "u"; alias = Some "uu" };
            kind = Ast.Inner;
            cond = Some (Ast.Cmp (Ast.Eq, Ast.Column (Some "t", "k"),
                                  Ast.Column (Some "uu", "k")));
          };
      ]
  in
  let* where = opt filter in
  let* grouped = bool in
  let* proj_agg = agg in
  let projections =
    if grouped then
      [ Ast.Proj (Ast.Column (None, "c0"), None); Ast.Proj (proj_agg, Some "agg") ]
    else [ Ast.Proj (Ast.Column (None, "c0"), Some "x") ]
  in
  let group_by = if grouped then [ Ast.Column (None, "c0") ] else [] in
  let* limit = opt (map (fun i -> Ast.Const (Datum.Int i)) (int_range 1 10)) in
  let* desc = bool in
  return
    {
      Ast.distinct = false;
      projections;
      from;
      where;
      group_by;
      having = None;
      order_by = [ (Ast.Column (None, "c0"), if desc then Ast.Desc else Ast.Asc) ];
      limit;
      offset = None;
    }

let statement_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun s -> Ast.Select_stmt s) select_gen;
      map
        (fun s ->
          Ast.Insert
            {
              table = "t";
              columns = Some [ "c0"; "c1" ];
              source = Ast.Query s;
              on_conflict_do_nothing = false;
            })
        select_gen;
      map2
        (fun v w ->
          Ast.Update
            {
              table = "t";
              sets = [ ("c0", Ast.Const (Datum.Int v)) ];
              where = Some w;
            })
        (int_range 0 9)
        (map (fun i -> Ast.Cmp (Ast.Eq, Ast.Column (None, "k"), Ast.Const (Datum.Int i)))
           (int_range 0 9));
    ]

let prop_statement_roundtrip =
  QCheck2.Test.make ~name:"statement deparse/parse round trip" ~count:200
    ~print:(fun st -> Deparse.statement st)
    statement_gen
    (fun st ->
      match Parser.parse_statement (Deparse.statement st) with
      | ast -> ast = st
      | exception Parser.Parse_error _ -> false)

(* Property: lifting constants is the inverse of binding them, and
   leaves no constant anywhere binding reaches, subqueries included. *)
let prop_lift_consts_inverse =
  QCheck2.Test.make ~name:"bind_params inverts lift_consts" ~count:200
    ~print:(fun st -> Deparse.statement st)
    statement_gen
    (fun st ->
      let shape, values = Ast.lift_consts st in
      let consts_left = ref 0 in
      ignore
        (Ast.map_statement_exprs
           (function
             | Ast.Const _ as e ->
               incr consts_left;
               e
             | e -> e)
           shape);
      Ast.bind_params values shape = st && !consts_left = 0)

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"expr deparse/parse round trip" ~count:300
    ~print:(fun e -> Deparse.expr e)
    (expr_gen 3) (fun e ->
      let text = Deparse.expr e in
      match Parser.parse_expression text with
      | ast -> ast = e
      | exception Parser.Parse_error _ -> false)

(* --- statement cache --- *)

(* What the parser makes of a text: a statement or its error. Deparses
   are compared too, since [(=)] calls 0.0 and -0.0 equal. *)
let outcome parse text =
  match parse text with
  | st -> Ok (st, Deparse.statement st)
  | exception Parser.Parse_error m -> Error m

(* A cache whose payload is the template and its key. *)
let new_cache () = Stmt_cache.create (fun template key -> (template, key))

(* The cache's reading of a text, a hit bound into its template. *)
let cached_parse cache text =
  match Stmt_cache.lookup cache text with
  | Stmt_cache.Parsed st -> st
  | Stmt_cache.Hit ((template, _), values) -> Ast.bind_params values template

let same_as_parser cache text =
  outcome (cached_parse cache) text = outcome Parser.parse_statement text

let check_same cache text =
  if not (same_as_parser cache text) then
    Alcotest.failf "cache and parser disagree on %S" text

let hits cache = (Stmt_cache.stats cache).Stmt_cache.hits

(* A skeleton keeps its literals' kinds, and the sign a negative number
   spells, so each position draws its kind once and its value per
   round. *)
let kind_gen = QCheck2.Gen.oneofl [ `Nat; `Neg; `Float; `Text; `Null ]

let value_gen =
  let open QCheck2.Gen in
  function
  | `Nat -> map (fun i -> Datum.Int i) (oneof [ int_range 0 1000; int_bound max_int ])
  | `Neg -> map (fun i -> Datum.Int (-i - 1)) (int_bound 1_000_000)
  | `Float ->
    map (fun f -> Datum.Float f)
      (oneof [ oneofl [ 1e5; 0.5; 0.0; -0.0; 1e-7; 1e20 ]; float_range 0.0 1e6 ])
  | `Text ->
    map (fun s -> Datum.Text s)
      (string_size
         ~gen:
           (oneofl
              [ '\''; '%'; '_'; '0'; '7'; 'a'; ' '; '"'; '\x80'; '\xc3'; '\xa9'; '\xff' ])
         (int_range 0 6))
  | `Null -> return Datum.Null

(* Three texts of one generated shape, literals redrawn each round, go
   through one cache: the first is seen, the second admitted, the third
   bound from the template. Each must read as the parser reads it. *)
let prop_stmt_cache =
  let gen =
    let open QCheck2.Gen in
    let* st = statement_gen in
    let shape, values = Ast.lift_consts st in
    let* kinds = list_repeat (List.length values) kind_gen in
    let* rounds = list_repeat 3 (flatten_l (List.map value_gen kinds)) in
    return (List.map (fun vs -> Deparse.statement (Ast.bind_params vs shape)) rounds)
  in
  QCheck2.Test.make ~name:"statement cache = fresh parse" ~count:300
    ~print:(String.concat "\n") gen
    (fun texts ->
      let cache = new_cache () in
      List.for_all (same_as_parser cache) texts)

(* Property: texts of one skeleton get one template and one key from
   the cache whatever their literals, and a hit's template is the text's
   own parse with its literals lifted. The first text is seen, the
   second admitted, and the last two hit with different literals. *)
let prop_stmt_cache_shape =
  let gen =
    let open QCheck2.Gen in
    let* st = statement_gen in
    let shape, values = Ast.lift_consts st in
    let value =
      oneof
        [
          map (fun i -> Datum.Int i) (int_range 0 1000);
          map (fun f -> Datum.Float f) (oneofl [ 0.5; 2.25; 1e5; 1e20 ]);
          map (fun s -> Datum.Text s)
            (string_size ~gen:(oneofl [ '\''; 'a'; '7'; ' '; '\xc3' ]) (int_range 0 4));
        ]
    in
    let* kinds = list_repeat (List.length values) value in
    (* each round keeps every position's kind, so one skeleton *)
    let redraw (v : Datum.t) =
      match v with
      | Datum.Int _ -> map (fun i -> Datum.Int i) (int_range 0 1000)
      | Datum.Float _ -> map (fun f -> Datum.Float f) (oneofl [ 0.5; 2.25; 1e5; 1e20 ])
      | _ -> map (fun s -> Datum.Text s) (string_size ~gen:(oneofl [ 'b'; '%' ]) (int_range 0 4))
    in
    let* rounds = list_repeat 4 (flatten_l (List.map redraw kinds)) in
    return (List.map (fun vs -> Deparse.statement (Ast.bind_params vs shape)) rounds)
  in
  QCheck2.Test.make ~name:"statement cache template = lifted parse" ~count:300
    ~print:(String.concat "\n") gen
    (fun texts ->
      let cache = new_cache () in
      let found = List.map (Stmt_cache.lookup cache) texts in
      match found with
      | [ Stmt_cache.Parsed _; Stmt_cache.Parsed _; Stmt_cache.Hit ((ta, ka), _);
          Stmt_cache.Hit ((tb, kb), _) ] ->
        let lifted text = fst (Ast.lift_consts (Parser.parse_statement text)) in
        ta = tb
        && String.equal ka kb
        && String.equal ka (Deparse.statement ta)
        && ta = lifted (List.nth texts 2)
        && tb = lifted (List.nth texts 3)
      | _ -> false)

(* Spellings the deparser never prints: exponents, a leading dot, -0.0,
   out-of-range and malformed numbers, escaped quotes, and
   double-quoted identifiers holding digits and quotes. Each text runs
   three times through one cache: seen, admitted, bound. *)
let prop_stmt_cache_spellings =
  let gen =
    let open QCheck2.Gen in
    let number =
      oneof
        [
          map string_of_int (int_range 0 99999);
          oneofl
            [ "1e5"; ".5"; "2.5e-3"; "1E+5"; "0.0"; "007"; "1e"; "3.";
              "99999999999999999999" ];
        ]
    in
    let text =
      map (fun s -> "'" ^ s ^ "'")
        (oneofl [ "it''s"; "%_9"; "caf\xc3\xa9"; ""; "''"; "a--b"; "$1" ])
    in
    let lit = oneof [ number; text; map (( ^ ) "-") number ] in
    let ident = oneofl [ "k"; "events_102008"; "\"c1'x\""; "\"9\""; "c2" ] in
    let stmt =
      map3
        (fun (a, b) (x, y) limit ->
          Printf.sprintf
            "SELECT %s, %s FROM events_102008 WHERE %s = %s AND %s = %s%s"
            a b a x b y limit)
        (pair ident ident) (pair lit lit)
        (oneof [ return ""; map (( ^ ) " LIMIT ") number ])
    in
    list_repeat 3 stmt
  in
  QCheck2.Test.make ~name:"statement cache = fresh parse, raw spellings" ~count:300
    ~print:(String.concat "\n") gen
    (fun texts ->
      let cache = new_cache () in
      List.for_all (fun t -> List.for_all (same_as_parser cache) [ t; t; t ]) texts)

(* Texts the scan refuses, and texts too long to hold, are parsed every
   time, with the parser's errors. *)
let test_stmt_cache_unscanned () =
  let cache = new_cache () in
  List.iter
    (fun text -> for _ = 1 to 3 do check_same cache text done)
    [
      "SELECT a FROM t WHERE k = 1 -- note";
      "SELECT a FROM t WHERE k = $1";
      "SELECT a FROM t WHERE s = 'unterminated";
      "SELECT * FROM items WHERE key = 99999999999999999999";
      "SELECT \"a\001\" FROM t WHERE k = 1";
      (* past the length bound: a bulk statement is parsed, never held *)
      "SELECT a FROM t WHERE k IN ("
      ^ String.concat ", " (List.init 1500 string_of_int)
      ^ ")";
    ];
  Alcotest.(check int) "no hits" 0 (hits cache);
  Alcotest.(check int) "nothing held" 0 (Stmt_cache.size cache)

(* Shard names carry digits that belong to the word, not literals, and
   a hit unescapes quotes as the parser does. *)
let test_stmt_cache_hits () =
  let cache = new_cache () in
  List.iter (check_same cache)
    [
      "SELECT v FROM events_102008 WHERE k = 1 AND s = 'it''s'";
      "SELECT v FROM events_102008 WHERE k = 2 AND s = 'a'";
      "SELECT v FROM events_102008 WHERE k = 3 AND s = 'x''y'''";
    ];
  Alcotest.(check int) "third text bound from the template" 1 (hits cache);
  (* an out-of-range value in a templated skeleton is the parser's error *)
  check_same cache
    "SELECT v FROM events_102008 WHERE k = 99999999999999999999 AND s = 'a'";
  Alcotest.(check int) "still one hit" 1 (hits cache)

(* A template that does not bind back to the text's parse is refused:
   a negative number folds into its constant, and a transaction id must
   be a string literal. *)
let test_stmt_cache_uncacheable () =
  let cache = new_cache () in
  List.iter (check_same cache)
    [
      "PREPARE TRANSACTION 'citus_0_1'"; "PREPARE TRANSACTION 'citus_0_2'";
      "PREPARE TRANSACTION 'citus_0_3'"; "SELECT -5"; "SELECT -6"; "SELECT -7";
    ];
  let st = Stmt_cache.stats cache in
  Alcotest.(check int) "two uncacheable skeletons" 2 st.Stmt_cache.uncacheable;
  Alcotest.(check int) "no hits" 0 st.Stmt_cache.hits

(* NULL, TRUE and FALSE are constants to the skeleton as to
   [lift_consts], so such texts hit from their third sighting; the NULL
   of IS NOT NULL and of a column's NOT NULL stays a word. *)
let test_stmt_cache_keyword_consts () =
  let cache = new_cache () in
  let check texts hits_after =
    List.iter (check_same cache) texts;
    Alcotest.(check int) (List.hd texts) hits_after (hits cache)
  in
  check (List.init 3 (Printf.sprintf "INSERT INTO t VALUES (%d, NULL, TRUE)")) 1;
  check (List.init 3 (Printf.sprintf "INSERT INTO t VALUES (%d, 'x', false)")) 2;
  check [ "UPDATE t SET b = Null WHERE k = 1"; "UPDATE t SET b = TRUE WHERE k = 2";
          "UPDATE t SET b = false WHERE k = 3" ] 3;
  check (List.init 3 (Printf.sprintf "SELECT a FROM t WHERE b IS NOT NULL AND k = %d")) 4;
  check (List.init 3 (Printf.sprintf "SELECT a FROM t WHERE b IS NULL AND k = %d")) 5;
  Alcotest.(check int) "no uncacheable skeleton" 0 (Stmt_cache.stats cache).Stmt_cache.uncacheable

let test_stmt_cache_bound () =
  let cache = new_cache () in
  let text i k = Printf.sprintf "SELECT c%d FROM t WHERE k = %d" i k in
  let last = Stmt_cache.capacity + 10 in
  for i = 1 to last do
    ignore (Stmt_cache.lookup cache (text i 1))
  done;
  Alcotest.(check int) "held at the bound" Stmt_cache.capacity (Stmt_cache.size cache);
  (* the newest skeleton survived the evictions: it admits, then hits *)
  List.iter (fun k -> check_same cache (text last k)) [ 2; 3 ];
  Alcotest.(check int) "newest skeleton hits" 1 (hits cache);
  Alcotest.(check int) "still at the bound" Stmt_cache.capacity (Stmt_cache.size cache)

let () =
  Alcotest.run "sqlfront"
    [
      ( "parser",
        [
          Alcotest.test_case "select simple" `Quick test_select_simple;
          Alcotest.test_case "select star" `Quick test_select_star;
          Alcotest.test_case "qualified star" `Quick test_qualified_star;
          Alcotest.test_case "operator precedence" `Quick test_operator_precedence;
          Alcotest.test_case "and/or precedence" `Quick test_and_or_precedence;
          Alcotest.test_case "json operators" `Quick test_json_operators;
          Alcotest.test_case "cast chain" `Quick test_cast_chain;
          Alcotest.test_case "date cast" `Quick test_date_cast_becomes_function;
          Alcotest.test_case "count star" `Quick test_count_star;
          Alcotest.test_case "agg distinct" `Quick test_agg_distinct;
          Alcotest.test_case "joins" `Quick test_joins;
          Alcotest.test_case "subquery in from" `Quick test_subquery_in_from;
          Alcotest.test_case "insert values" `Quick test_insert_values;
          Alcotest.test_case "insert select" `Quick test_insert_select;
          Alcotest.test_case "create table pk" `Quick test_create_table_pk;
          Alcotest.test_case "composite pk" `Quick test_create_table_composite_pk;
          Alcotest.test_case "gin expression index" `Quick
            test_create_index_gin_expression;
          Alcotest.test_case "2pc statements" `Quick test_twophase_statements;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "call" `Quick test_call;
          Alcotest.test_case "case expression" `Quick test_case_expr;
          Alcotest.test_case "between/in" `Quick test_between_and_in;
          Alcotest.test_case "ilike" `Quick test_ilike;
          Alcotest.test_case "exists" `Quick test_exists_subquery;
          Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parse error positions" `Quick
            test_parse_error_positions;
          Alcotest.test_case "cte desugaring" `Quick test_cte_desugars_to_subselect;
          Alcotest.test_case "multiple ctes" `Quick test_cte_multiple_and_alias;
          Alcotest.test_case "recursive cte rejected" `Quick
            test_recursive_cte_rejected;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "comments" `Quick test_lexer_comments_and_whitespace;
          Alcotest.test_case "quoted identifiers" `Quick test_lexer_quoted_identifier;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "operators" `Quick test_operator_tokenization;
          Alcotest.test_case "keywords in any case" `Quick test_lexer_keyword_case;
        ] );
      ( "deparse",
        [
          Alcotest.test_case "round trip corpus" `Quick test_roundtrip_corpus;
        ] );
      ( "stmt cache",
        [
          Alcotest.test_case "unscanned texts" `Quick test_stmt_cache_unscanned;
          Alcotest.test_case "hits" `Quick test_stmt_cache_hits;
          Alcotest.test_case "uncacheable" `Quick test_stmt_cache_uncacheable;
          Alcotest.test_case "NULL, TRUE and FALSE hit" `Quick test_stmt_cache_keyword_consts;
          Alcotest.test_case "bound" `Quick test_stmt_cache_bound;
          QCheck_alcotest.to_alcotest prop_stmt_cache;
          QCheck_alcotest.to_alcotest prop_stmt_cache_shape;
          QCheck_alcotest.to_alcotest prop_stmt_cache_spellings;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
          QCheck_alcotest.to_alcotest prop_statement_roundtrip;
          QCheck_alcotest.to_alcotest prop_lift_consts_inverse;
        ] );
    ]
