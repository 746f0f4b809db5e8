exception Parse_error of string

open Ast

(* The parser never backtracks and looks at most three tokens ahead, so it
   walks the lexer's list; [pos] counts consumed tokens for error
   messages only. *)
type state = { mutable rest : Lexer.token list; mutable pos : int }

let peek st = match st.rest with tok :: _ -> tok | [] -> Lexer.Eof

(* The lexer ends every list with [Eof], which no production consumes, so
   [peek] names the offending token whenever a statement fails. *)
let fail st msg =
  raise
    (Parse_error
       (Printf.sprintf "%s (at token %d: %s)" msg st.pos
          (Lexer.token_to_string (peek st))))

let peek2 st = match st.rest with _ :: tok :: _ -> tok | _ -> Lexer.Eof

let advance st =
  (match st.rest with _ :: rest -> st.rest <- rest | [] -> ());
  st.pos <- st.pos + 1

let eat st tok =
  if Lexer.equal_token (peek st) tok then advance st
  else fail st (Printf.sprintf "expected %s" (Lexer.token_to_string tok))

let accept st tok =
  if Lexer.equal_token (peek st) tok then (advance st; true) else false

let kw st k = accept st (Lexer.Keyword k)

let expect_kw st k = eat st (Lexer.Keyword k)

(* Keywords that PostgreSQL treats as unreserved: they may appear wherever
   an identifier is expected (e.g. a column named "key"). *)
let unreserved =
  [ "KEY"; "COLUMN"; "INDEX"; "DO"; "NOTHING"; "STDIN"; "TRANSACTION";
    "PREPARED"; "BTREE"; "GIN"; "COLUMNAR"; "BY"; "EXECUTE"; "DEALLOCATE" ]

let ident_of_token = function
  | Lexer.Ident s -> Some s
  | Lexer.Keyword k when List.exists (String.equal k) unreserved ->
    Some (String.lowercase_ascii k)
  | _ -> None

let expect_ident st =
  match ident_of_token (peek st) with
  | Some s -> advance st; s
  | None -> fail st "expected identifier"

let expect_string st =
  match peek st with
  | Lexer.String_lit s -> advance st; s
  | _ -> fail st "expected string literal"

(* One or more [item]s separated by commas. *)
let comma_list st item =
  let rec go acc =
    let x = item st in
    if accept st Lexer.Comma then go (x :: acc) else List.rev (x :: acc)
  in
  go []

(* The same, closed by [)]; the opening one is already consumed. *)
let paren_list st item =
  let l = comma_list st item in
  eat st Lexer.Rparen;
  l

(* Type names: single identifier, or "double precision" / "timestamp with(out) time zone". *)
let parse_type_name st =
  let first = expect_ident st in
  match first with
  | "double" ->
    (match peek st with
     | Lexer.Ident "precision" -> advance st; "double precision"
     | _ -> "double")
  | "timestamp" ->
    (match peek st with
     | Lexer.Ident ("with" | "without") ->
       advance st;
       let _time = expect_ident st in
       let _zone = expect_ident st in
       "timestamp"
     | _ -> "timestamp")
  | "character" ->
    (match peek st with
     | Lexer.Ident "varying" -> advance st; "varchar"
     | _ -> "char")
  | t -> t

(* "date" has no datum type: casts to date become a text-truncation
   function, which is what the analytics workloads need. *)
let cast_expr e ty_name =
  match String.lowercase_ascii ty_name with
  | "date" -> Func ("sql_date", [ e ])
  | name -> Cast (e, Datum.ty_of_name name)

let agg_keywords = [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if kw st "OR" then Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if kw st "AND" then And (left, parse_and st) else left

and parse_not st =
  if kw st "NOT" then Not (parse_not st) else parse_predicate st

and parse_predicate st =
  let left = parse_additive st in
  let rec loop left =
    match peek st with
    | Lexer.Op (("=" | "<>" | "<" | "<=" | ">" | ">=") as op) ->
      advance st;
      let right = parse_additive st in
      let cmp =
        match op with
        | "=" -> Eq
        | "<>" -> Ne
        | "<" -> Lt
        | "<=" -> Le
        | ">" -> Gt
        | ">=" -> Ge
        | _ -> assert false
      in
      loop (Cmp (cmp, left, right))
    | Lexer.Keyword "IS" ->
      advance st;
      let negated = kw st "NOT" in
      expect_kw st "NULL";
      loop (Is_null (left, not negated))
    | Lexer.Keyword "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      expect_kw st "AND";
      let hi = parse_additive st in
      loop (Between (left, lo, hi))
    | Lexer.Keyword "IN" -> loop (parse_in st left false)
    | Lexer.Keyword "LIKE" ->
      advance st;
      let pattern = parse_additive st in
      loop (Like { subject = left; pattern; ci = false; negated = false })
    | Lexer.Keyword "ILIKE" ->
      advance st;
      let pattern = parse_additive st in
      loop (Like { subject = left; pattern; ci = true; negated = false })
    | Lexer.Keyword "NOT" -> begin
      match peek2 st with
      | Lexer.Keyword "IN" ->
        advance st;
        loop (parse_in st left true)
      | Lexer.Keyword "LIKE" ->
        advance st;
        advance st;
        let pattern = parse_additive st in
        loop (Like { subject = left; pattern; ci = false; negated = true })
      | Lexer.Keyword "ILIKE" ->
        advance st;
        advance st;
        let pattern = parse_additive st in
        loop (Like { subject = left; pattern; ci = true; negated = true })
      | _ -> left
    end
    | _ -> left
  in
  loop left

and parse_in st left negated =
  expect_kw st "IN";
  eat st Lexer.Lparen;
  match peek st with
  | Lexer.Keyword "SELECT" ->
    let sel = parse_select_body st in
    eat st Lexer.Rparen;
    In_subquery (left, sel, negated)
  | _ -> In_list (left, paren_list st parse_expr, negated)

and parse_additive st =
  let left = parse_multiplicative st in
  let rec loop left =
    match peek st with
    | Lexer.Op "+" -> advance st; loop (Bin (Add, left, parse_multiplicative st))
    | Lexer.Op "-" -> advance st; loop (Bin (Sub, left, parse_multiplicative st))
    | Lexer.Op "||" -> advance st; loop (Bin (Concat, left, parse_multiplicative st))
    | _ -> left
  in
  loop left

and parse_multiplicative st =
  let left = parse_unary st in
  let rec loop left =
    match peek st with
    | Lexer.Star -> advance st; loop (Bin (Mul, left, parse_unary st))
    | Lexer.Op "/" -> advance st; loop (Bin (Div, left, parse_unary st))
    | Lexer.Op "%" -> advance st; loop (Bin (Mod, left, parse_unary st))
    | _ -> left
  in
  loop left

and parse_unary st =
  match peek st with
  | Lexer.Op "-" ->
    advance st;
    (* fold negated numeric literals so they round-trip as constants *)
    (match parse_unary st with
     | Const (Datum.Int i) -> Const (Datum.Int (-i))
     | Const (Datum.Float f) -> Const (Datum.Float (-.f))
     | e -> Neg e)
  | Lexer.Op "+" -> advance st; parse_unary st
  | _ -> parse_postfix st

and parse_postfix st =
  let e = parse_primary st in
  let rec loop e =
    match peek st with
    | Lexer.Op "::" ->
      advance st;
      let ty = parse_type_name st in
      loop (cast_expr e ty)
    | Lexer.Op "->" ->
      advance st;
      loop (Json_get (e, parse_primary st, false))
    | Lexer.Op "->>" ->
      advance st;
      loop (Json_get (e, parse_primary st, true))
    | _ -> e
  in
  loop e

and parse_primary st =
  match peek st with
  | Lexer.Int_lit i -> advance st; Const (Datum.Int i)
  | Lexer.Float_lit f -> advance st; Const (Datum.Float f)
  | Lexer.String_lit s -> advance st; Const (Datum.Text s)
  | Lexer.Param_tok i -> advance st; Param i
  | Lexer.Keyword "NULL" -> advance st; Const Datum.Null
  | Lexer.Keyword "TRUE" -> advance st; Const (Datum.Bool true)
  | Lexer.Keyword "FALSE" -> advance st; Const (Datum.Bool false)
  | Lexer.Keyword "CASE" -> parse_case st
  | Lexer.Keyword "CAST" ->
    advance st;
    eat st Lexer.Lparen;
    let e = parse_expr st in
    expect_kw st "AS";
    let ty = parse_type_name st in
    eat st Lexer.Rparen;
    cast_expr e ty
  | Lexer.Keyword "EXISTS" ->
    advance st;
    eat st Lexer.Lparen;
    let sel = parse_select_body st in
    eat st Lexer.Rparen;
    Exists (sel, false)
  | Lexer.Keyword "NOT"
    when Lexer.equal_token (peek2 st) (Lexer.Keyword "EXISTS") ->
    advance st;
    advance st;
    eat st Lexer.Lparen;
    let sel = parse_select_body st in
    eat st Lexer.Rparen;
    Exists (sel, true)
  | Lexer.Keyword k when List.exists (String.equal k) agg_keywords ->
    advance st;
    eat st Lexer.Lparen;
    let name = String.lowercase_ascii k in
    if Lexer.equal_token (peek st) Lexer.Star then begin
      advance st;
      eat st Lexer.Rparen;
      if name <> "count" then fail st "only COUNT(*) takes *";
      Agg { agg_name = "count"; agg_arg = None; agg_distinct = false }
    end
    else begin
      let distinct = kw st "DISTINCT" in
      let arg = parse_expr st in
      eat st Lexer.Rparen;
      Agg { agg_name = name; agg_arg = Some arg; agg_distinct = distinct }
    end
  | Lexer.Lparen ->
    advance st;
    (match peek st with
     | Lexer.Keyword "SELECT" ->
       let sel = parse_select_body st in
       eat st Lexer.Rparen;
       Scalar_subquery sel
     | _ ->
       let e = parse_expr st in
       eat st Lexer.Rparen;
       e)
  | tok when Option.is_some (ident_of_token tok) -> begin
    let name = Option.get (ident_of_token tok) in
    match peek2 st with
    | Lexer.Lparen ->
      advance st;
      advance st;
      if accept st Lexer.Rparen then Func (name, [])
      else Func (name, paren_list st parse_expr)
    | Lexer.Dot ->
      advance st;
      advance st;
      let col = expect_ident st in
      Column (Some name, col)
    | _ ->
      advance st;
      Column (None, name)
  end
  | _ -> fail st "expected expression"

and parse_case st =
  expect_kw st "CASE";
  let rec branches acc =
    if kw st "WHEN" then begin
      let cond = parse_expr st in
      expect_kw st "THEN";
      let value = parse_expr st in
      branches ((cond, value) :: acc)
    end
    else List.rev acc
  in
  let bs = branches [] in
  let else_ = if kw st "ELSE" then Some (parse_expr st) else None in
  expect_kw st "END";
  Case (bs, else_)

(* --- SELECT --- *)

and parse_projection st =
  match st.rest with
  | Lexer.Star :: _ -> advance st; Ast.Star
  | Lexer.Ident name :: Lexer.Dot :: Lexer.Star :: _ ->
    advance st;
    advance st;
    advance st;
    Star_of name
  | _ ->
    let e = parse_expr st in
    let alias =
      if kw st "AS" then Some (expect_ident st)
      else
        match peek st with
        | Lexer.Ident a
          when not (Lexer.is_keyword a) ->
          advance st;
          Some a
        | _ -> None
    in
    Proj (e, alias)

and parse_base_from_item st =
  match peek st with
  | Lexer.Lparen ->
    advance st;
    (match peek st with
     | Lexer.Keyword "SELECT" ->
       let sel = parse_select_body st in
       eat st Lexer.Rparen;
       ignore (kw st "AS");
       let alias = expect_ident st in
       Subselect (sel, alias)
     | _ ->
       let item = parse_from_item st in
       eat st Lexer.Rparen;
       item)
  | _ ->
    let name = expect_ident st in
    let alias =
      if kw st "AS" then Some (expect_ident st)
      else
        match peek st with
        | Lexer.Ident a -> advance st; Some a
        | _ -> None
    in
    Table { name; alias }

and parse_from_item st =
  let left = parse_base_from_item st in
  let rec joins left =
    match peek st with
    | Lexer.Keyword "JOIN" ->
      advance st;
      let right = parse_base_from_item st in
      expect_kw st "ON";
      let cond = parse_expr st in
      joins (Join { left; right; kind = Inner; cond = Some cond })
    | Lexer.Keyword "INNER" when Lexer.equal_token (peek2 st) (Lexer.Keyword "JOIN") ->
      advance st;
      advance st;
      let right = parse_base_from_item st in
      expect_kw st "ON";
      let cond = parse_expr st in
      joins (Join { left; right; kind = Inner; cond = Some cond })
    | Lexer.Keyword "LEFT" ->
      advance st;
      ignore (kw st "OUTER");
      expect_kw st "JOIN";
      let right = parse_base_from_item st in
      expect_kw st "ON";
      let cond = parse_expr st in
      joins (Join { left; right; kind = Left_outer; cond = Some cond })
    | Lexer.Keyword "CROSS" ->
      advance st;
      expect_kw st "JOIN";
      let right = parse_base_from_item st in
      joins (Join { left; right; kind = Inner; cond = None })
    | _ -> left
  in
  joins left

(* WITH name AS (select), ... desugars into subselects: every FROM
   reference to a CTE name becomes an inline derived table. Recursive CTEs
   are rejected (unsupported, as in the paper's §7). *)
and parse_select_body st =
  if kw st "WITH" then begin
    if kw st "RECURSIVE" then fail st "recursive CTEs are not supported";
    let ctes =
      comma_list st (fun st ->
          let name = expect_ident st in
          expect_kw st "AS";
          eat st Lexer.Lparen;
          let cte = parse_select_body st in
          eat st Lexer.Rparen;
          (name, cte))
    in
    let body = parse_select_body st in
    substitute_ctes ctes body
  end
  else parse_select_plain st

and substitute_ctes ctes (sel : Ast.select) : Ast.select =
  let rec in_from = function
    | Ast.Table { name; alias } as item ->
      (match List.assoc_opt name ctes with
       | Some cte ->
         Ast.Subselect (cte, Option.value ~default:name alias)
       | None -> item)
    | Ast.Subselect (s, a) -> Ast.Subselect (in_select s, a)
    | Ast.Join { left; right; kind; cond } ->
      Ast.Join { left = in_from left; right = in_from right; kind; cond }
  and in_select s =
    let in_expr e =
      Ast.map_expr
        (fun n ->
          match n with
          | Ast.Exists (sub, neg) -> Ast.Exists (in_select sub, neg)
          | Ast.In_subquery (e, sub, neg) -> Ast.In_subquery (e, in_select sub, neg)
          | Ast.Scalar_subquery sub -> Ast.Scalar_subquery (in_select sub)
          | n -> n)
        e
    in
    {
      s with
      Ast.from = List.map in_from s.Ast.from;
      where = Option.map in_expr s.Ast.where;
      having = Option.map in_expr s.Ast.having;
      projections =
        List.map
          (function
            | Ast.Proj (e, a) -> Ast.Proj (in_expr e, a)
            | p -> p)
          s.Ast.projections;
    }
  in
  in_select sel

and parse_select_plain st =
  expect_kw st "SELECT";
  let distinct = kw st "DISTINCT" in
  let projections = comma_list st parse_projection in
  let from = if kw st "FROM" then comma_list st parse_from_item else [] in
  let where = if kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if kw st "GROUP" then begin
      expect_kw st "BY";
      comma_list st parse_expr
    end
    else []
  in
  let having = if kw st "HAVING" then Some (parse_expr st) else None in
  let order_by =
    if kw st "ORDER" then begin
      expect_kw st "BY";
      comma_list st (fun st ->
          let e = parse_expr st in
          if kw st "DESC" then (e, Desc)
          else begin
            ignore (kw st "ASC");
            (e, Asc)
          end)
    end
    else []
  in
  let limit = if kw st "LIMIT" then Some (parse_expr st) else None in
  let offset = if kw st "OFFSET" then Some (parse_expr st) else None in
  { distinct; projections; from; where; group_by; having; order_by; limit; offset }

(* --- statements --- *)

let parse_column_def st =
  let col_name = expect_ident st in
  let ty = parse_type_name st in
  let col_ty = Datum.ty_of_name ty in
  let primary = ref false in
  let not_null = ref false in
  let default = ref None in
  let rec options () =
    if kw st "PRIMARY" then begin
      expect_kw st "KEY";
      primary := true;
      options ()
    end
    else if kw st "NOT" then begin
      expect_kw st "NULL";
      not_null := true;
      options ()
    end
    else if kw st "DEFAULT" then begin
      default := Some (parse_expr st);
      options ()
    end
  in
  options ();
  ({ col_name; col_ty; col_default = !default; col_not_null = !not_null }, !primary)

let parse_create_table st =
  let if_not_exists =
    if kw st "IF" then begin
      expect_kw st "NOT";
      expect_kw st "EXISTS";
      true
    end
    else false
  in
  let name = expect_ident st in
  eat st Lexer.Lparen;
  let columns = ref [] in
  let primary_key = ref [] in
  let rec defs () =
    (if kw st "PRIMARY" then begin
       expect_kw st "KEY";
       eat st Lexer.Lparen;
       primary_key := paren_list st expect_ident
     end
     else begin
       let def, is_pk = parse_column_def st in
       columns := def :: !columns;
       if is_pk then primary_key := [ def.col_name ]
     end);
    if accept st Lexer.Comma then defs () else eat st Lexer.Rparen
  in
  defs ();
  let using_columnar =
    if kw st "USING" then begin
      expect_kw st "COLUMNAR";
      true
    end
    else false
  in
  Create_table
    {
      name;
      columns = List.rev !columns;
      primary_key = !primary_key;
      if_not_exists;
      using_columnar;
    }

let parse_create_index st =
  let if_not_exists =
    if kw st "IF" then begin
      expect_kw st "NOT";
      expect_kw st "EXISTS";
      true
    end
    else false
  in
  let name = expect_ident st in
  expect_kw st "ON";
  let table = expect_ident st in
  let using =
    if kw st "USING" then
      if kw st "GIN" then Gin_trgm
      else if kw st "BTREE" then Btree
      else fail st "expected GIN or BTREE"
    else Btree
  in
  eat st Lexer.Lparen;
  (* Either a column list, or a parenthesized expression with an optional
     operator class: ((expr) gin_trgm_ops) *)
  match peek st with
  | Lexer.Lparen ->
    advance st;
    let e = parse_expr st in
    eat st Lexer.Rparen;
    (match peek st with
     | Lexer.Ident _ -> advance st (* operator class, e.g. gin_trgm_ops *)
     | _ -> ());
    eat st Lexer.Rparen;
    Create_index
      { name; table; using; key_columns = []; key_expr = Some e; if_not_exists }
  | _ ->
    let key_columns = paren_list st expect_ident in
    Create_index { name; table; using; key_columns; key_expr = None; if_not_exists }

let parse_insert st =
  expect_kw st "INTO";
  let table = expect_ident st in
  let columns =
    if accept st Lexer.Lparen then Some (paren_list st expect_ident) else None
  in
  let source =
    if kw st "VALUES" then
      Values
        (comma_list st (fun st ->
             eat st Lexer.Lparen;
             paren_list st parse_expr))
    else Query (parse_select_body st)
  in
  let on_conflict_do_nothing =
    if kw st "ON" then begin
      expect_kw st "CONFLICT";
      expect_kw st "DO";
      expect_kw st "NOTHING";
      true
    end
    else false
  in
  Insert { table; columns; source; on_conflict_do_nothing }

let rec parse_statement_body st =
  match peek st with
  | Lexer.Keyword "SELECT" | Lexer.Keyword "WITH" ->
    Select_stmt (parse_select_body st)
  | Lexer.Keyword "INSERT" -> advance st; parse_insert st
  | Lexer.Keyword "UPDATE" ->
    advance st;
    let table = expect_ident st in
    expect_kw st "SET";
    let sets =
      comma_list st (fun st ->
          let col = expect_ident st in
          eat st (Lexer.Op "=");
          (col, parse_expr st))
    in
    let where = if kw st "WHERE" then Some (parse_expr st) else None in
    Update { table; sets; where }
  | Lexer.Keyword "DELETE" ->
    advance st;
    expect_kw st "FROM";
    let table = expect_ident st in
    let where = if kw st "WHERE" then Some (parse_expr st) else None in
    Delete { table; where }
  | Lexer.Keyword "CREATE" ->
    advance st;
    if kw st "TABLE" then parse_create_table st
    else if kw st "INDEX" then parse_create_index st
    else fail st "expected TABLE or INDEX after CREATE"
  | Lexer.Keyword "DROP" ->
    advance st;
    expect_kw st "TABLE";
    let if_exists =
      if kw st "IF" then begin
        expect_kw st "EXISTS";
        true
      end
      else false
    in
    let name = expect_ident st in
    Drop_table { name; if_exists }
  | Lexer.Keyword "ALTER" ->
    advance st;
    expect_kw st "TABLE";
    let table = expect_ident st in
    expect_kw st "ADD";
    ignore (kw st "COLUMN");
    let def, _pk = parse_column_def st in
    Alter_table_add_column { table; column = def }
  | Lexer.Keyword "TRUNCATE" ->
    advance st;
    ignore (kw st "TABLE");
    Truncate (comma_list st expect_ident)
  | Lexer.Keyword "COPY" ->
    advance st;
    let table = expect_ident st in
    let columns =
      if accept st Lexer.Lparen then Some (paren_list st expect_ident) else None
    in
    expect_kw st "FROM";
    expect_kw st "STDIN";
    Copy_from { table; columns }
  | Lexer.Keyword "BEGIN" -> advance st; Begin_txn
  | Lexer.Keyword "COMMIT" ->
    advance st;
    if kw st "PREPARED" then Commit_prepared (expect_string st) else Commit_txn
  | Lexer.Keyword ("ROLLBACK" | "ABORT") ->
    advance st;
    if kw st "PREPARED" then Rollback_prepared (expect_string st)
    else Rollback_txn
  | Lexer.Keyword "PREPARE" ->
    advance st;
    if kw st "TRANSACTION" then Prepare_transaction (expect_string st)
    else begin
      (* PREPARE name AS statement *)
      let pname = expect_ident st in
      expect_kw st "AS";
      Prepare_stmt { pname; pstmt = parse_statement_body st }
    end
  | Lexer.Keyword "EXECUTE" ->
    advance st;
    let ename = expect_ident st in
    let eargs =
      if not (accept st Lexer.Lparen) || accept st Lexer.Rparen then []
      else paren_list st parse_expr
    in
    Execute_stmt { ename; eargs }
  | Lexer.Keyword "DEALLOCATE" ->
    advance st;
    ignore (kw st "PREPARE");
    (match ident_of_token (peek st) with
     | Some "all" -> advance st; Deallocate_stmt None
     | Some n -> advance st; Deallocate_stmt (Some n)
     | None -> fail st "expected a prepared statement name or ALL")
  | Lexer.Keyword "VACUUM" ->
    advance st;
    (match peek st with
     | Lexer.Ident t -> advance st; Vacuum (Some t)
     | _ -> Vacuum None)
  | Lexer.Keyword "CALL" ->
    advance st;
    let proc = expect_ident st in
    eat st Lexer.Lparen;
    let args = if accept st Lexer.Rparen then [] else paren_list st parse_expr in
    Call { proc; args }
  | _ -> fail st "expected a statement"

let finish st v =
  ignore (accept st Lexer.Semicolon);
  if not (Lexer.equal_token (peek st) Lexer.Eof) then fail st "trailing input after statement";
  v

let with_state src f = f { rest = Lexer.tokenize src; pos = 0 }

let parse_statement src =
  try with_state src (fun st -> finish st (parse_statement_body st))
  with Lexer.Lex_error m -> raise (Parse_error m)

let parse_select src =
  try with_state src (fun st -> finish st (parse_select_body st))
  with Lexer.Lex_error m -> raise (Parse_error m)

let parse_expression src =
  try with_state src (fun st -> finish st (parse_expr st))
  with Lexer.Lex_error m -> raise (Parse_error m)
