(* Typed client surface over a coordinator session.

   [prepare] parses once, [execute] ships typed datums straight to the
   plan-cache route in [Api] without any string round trip ("EXECUTE
   s(1, 'x')"), so the OLTP hot path never touches the parser. *)

open Sqlfront

type t = Engine.Instance.session

let exec session sql = Engine.Instance.exec session sql

let prepare session ~name sql =
  (* the one sanctioned parse: statement birth, not the execute path *)
  let stmt = Parser.parse_statement sql in
  ignore
    (Engine.Instance.exec_ast session (Ast.Prepare_stmt { pname = name; pstmt = stmt }))

let execute session name datums =
  (* no SQL text is built: constants carry the datums, so the cached
     dispatch binds them without quoting/unquoting round trips *)
  let eargs = List.map (fun d -> Ast.Const d) datums in
  Engine.Instance.exec_ast session (Ast.Execute_stmt { ename = name; eargs })

let deallocate session name =
  ignore (Engine.Instance.exec_ast session (Ast.Deallocate_stmt (Some name)))

let deallocate_all session =
  ignore (Engine.Instance.exec_ast session (Ast.Deallocate_stmt None))

let prepared_names = Engine.Instance.prepared_names
