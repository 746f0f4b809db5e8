(** Abstract syntax of the SQL dialect.

    The dialect is the PostgreSQL subset the four workload patterns need:
    full SELECT with joins / subqueries / grouping / ordering, DML,
    DDL, COPY, transaction control including the 2PC verbs, and CALL for
    delegated stored procedures (§3.8). The Citus layer rewrites these
    trees (shard name substitution, aggregate decomposition) and deparses
    them back to SQL text to ship to workers. *)

type ty = Datum.ty

type binop = Add | Sub | Mul | Div | Mod | Concat

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Const of Datum.t
  | Column of string option * string  (** optional qualifier *)
  | Param of int  (** [$1] is [Param 1] *)
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Cmp of cmpop * expr * expr
  | Bin of binop * expr * expr
  | Neg of expr
  | Is_null of expr * bool  (** true = IS NULL, false = IS NOT NULL *)
  | In_list of expr * expr list * bool  (** negated? *)
  | Between of expr * expr * expr
  | Like of { subject : expr; pattern : expr; ci : bool; negated : bool }
  | Json_get of expr * expr * bool  (** [->] = false, [->>] = true *)
  | Cast of expr * ty
  | Case of (expr * expr) list * expr option
  | Func of string * expr list
  | Agg of agg
  | Exists of select * bool  (** negated? *)
  | In_subquery of expr * select * bool  (** negated? *)
  | Scalar_subquery of select

and agg = {
  agg_name : string;  (** count | sum | avg | min | max *)
  agg_arg : expr option;  (** [None] = COUNT star *)
  agg_distinct : bool;
}

and projection =
  | Star
  | Star_of of string
  | Proj of expr * string option  (** expression with optional alias *)

and from_item =
  | Table of { name : string; alias : string option }
  | Subselect of select * string
  | Join of {
      left : from_item;
      right : from_item;
      kind : join_kind;
      cond : expr option;  (** None = CROSS JOIN *)
    }

and join_kind = Inner | Left_outer

and select = {
  distinct : bool;
  projections : projection list;
  from : from_item list;  (** comma-separated items = cross join *)
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : (expr * order_dir) list;
  limit : expr option;
  offset : expr option;
}

and order_dir = Asc | Desc

type index_method = Btree | Gin_trgm

type insert_source = Values of expr list list | Query of select

type column_def = {
  col_name : string;
  col_ty : ty;
  col_default : expr option;
  col_not_null : bool;
}

type statement =
  | Select_stmt of select
  | Insert of {
      table : string;
      columns : string list option;
      source : insert_source;
      on_conflict_do_nothing : bool;
    }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Create_table of {
      name : string;
      columns : column_def list;
      primary_key : string list;
      if_not_exists : bool;
      using_columnar : bool;
    }
  | Create_index of {
      name : string;
      table : string;
      using : index_method;
      key_columns : string list;  (** for Btree *)
      key_expr : expr option;  (** for Gin_trgm over an expression *)
      if_not_exists : bool;
    }
  | Drop_table of { name : string; if_exists : bool }
  | Alter_table_add_column of { table : string; column : column_def }
  | Truncate of string list
  | Copy_from of { table : string; columns : string list option }
  | Begin_txn
  | Commit_txn
  | Rollback_txn
  | Prepare_transaction of string
  | Commit_prepared of string
  | Rollback_prepared of string
  | Vacuum of string option
  | Call of { proc : string; args : expr list }
  | Prepare_stmt of { pname : string; pstmt : statement }
      (** [PREPARE name AS statement]: session-scoped named statement,
          parameter placeholders left unbound *)
  | Execute_stmt of { ename : string; eargs : expr list }
      (** [EXECUTE name(args)]: run a prepared statement with arguments *)
  | Deallocate_stmt of string option  (** [None] = DEALLOCATE ALL *)

(** Structural helpers used across planners. *)

let rec fold_expr (f : 'a -> expr -> 'a) (acc : 'a) (e : expr) : 'a =
  let acc = f acc e in
  match e with
  | Const _ | Column _ | Param _ -> acc
  | And (a, b) | Or (a, b) | Cmp (_, a, b) | Bin (_, a, b) | Json_get (a, b, _)
    ->
    fold_expr f (fold_expr f acc a) b
  | Not a | Neg a | Is_null (a, _) | Cast (a, _) -> fold_expr f acc a
  | In_list (a, items, _) -> List.fold_left (fold_expr f) (fold_expr f acc a) items
  | Between (a, lo, hi) ->
    fold_expr f (fold_expr f (fold_expr f acc a) lo) hi
  | Like { subject; pattern; _ } -> fold_expr f (fold_expr f acc subject) pattern
  | Case (branches, else_) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> fold_expr f (fold_expr f acc c) v)
        acc branches
    in
    (match else_ with Some e -> fold_expr f acc e | None -> acc)
  | Func (_, args) -> List.fold_left (fold_expr f) acc args
  | Agg { agg_arg; _ } ->
    (match agg_arg with Some a -> fold_expr f acc a | None -> acc)
  | In_subquery (a, _, _) -> fold_expr f acc a
  | Exists _ | Scalar_subquery _ -> acc

(* [e] with [r] applied to each direct sub-expression, and [sub] to each
   subquery select when given (an [In_subquery]'s needle, then its
   select). The [let]s fix the evaluation order, so [r] sees the
   children left to right in source order: [lift_consts] numbers [$k] by
   it. *)
let map_children ?sub r e =
  match e, sub with
  | (Const _ | Column _ | Param _), _ -> e
  | And (a, b), _ -> let a = r a in And (a, r b)
  | Or (a, b), _ -> let a = r a in Or (a, r b)
  | Not a, _ -> Not (r a)
  | Cmp (op, a, b), _ -> let a = r a in Cmp (op, a, r b)
  | Bin (op, a, b), _ -> let a = r a in Bin (op, a, r b)
  | Neg a, _ -> Neg (r a)
  | Is_null (a, p), _ -> Is_null (r a, p)
  | In_list (a, items, neg), _ -> let a = r a in In_list (a, List.map r items, neg)
  | Between (a, lo, hi), _ -> let a = r a in let lo = r lo in Between (a, lo, r hi)
  | Like l, _ ->
    let subject = r l.subject in
    Like { l with subject; pattern = r l.pattern }
  | Json_get (a, b, text), _ -> let a = r a in Json_get (a, r b, text)
  | Cast (a, ty), _ -> Cast (r a, ty)
  | Case (branches, else_), _ ->
    let branches = List.map (fun (c, v) -> let c = r c in (c, r v)) branches in
    Case (branches, Option.map r else_)
  | Func (name, args), _ -> Func (name, List.map r args)
  | Agg a, _ -> Agg { a with agg_arg = Option.map r a.agg_arg }
  | Exists (s, neg), Some sub -> Exists (sub s, neg)
  | In_subquery (a, s, neg), Some sub -> let a = r a in In_subquery (a, sub s, neg)
  | Scalar_subquery s, Some sub -> Scalar_subquery (sub s)
  | (Exists _ | In_subquery _ | Scalar_subquery _), None -> e

(* Bottom-up: [f] sees each rebuilt node. [deep] also enters subquery
   selects. *)
let rec map_expr_in ~deep (f : expr -> expr) (e : expr) : expr =
  let sub = if deep then Some (map_select f) else None in
  f (map_children ?sub (map_expr_in ~deep f) e)

(* Every expression of a select, its subqueries included. *)
and map_select (f : expr -> expr) (s : select) : select =
  let me e = map_expr_in ~deep:true f e in
  let projections =
    List.map
      (function
        | Star -> Star
        | Star_of q -> Star_of q
        | Proj (e, a) -> Proj (me e, a))
      s.projections
  in
  let from = List.map (map_from f) s.from in
  let where = Option.map me s.where in
  let group_by = List.map me s.group_by in
  let having = Option.map me s.having in
  let order_by = List.map (fun (e, d) -> (me e, d)) s.order_by in
  let limit = Option.map me s.limit in
  let offset = Option.map me s.offset in
  { s with projections; from; where; group_by; having; order_by; limit; offset }

and map_from f = function
  | Table t -> Table t
  | Subselect (sel, alias) -> Subselect (map_select f sel, alias)
  | Join { left; right; kind; cond } ->
    let left = map_from f left in
    let right = map_from f right in
    Join { left; right; kind; cond = Option.map (map_expr_in ~deep:true f) cond }

let map_expr f e = map_expr_in ~deep:false f e

(** Conjuncts of a WHERE clause: [a AND b AND c] -> [a; b; c]. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc c -> And (acc, c)) e rest)

let select_from ?alias ?where table projections =
  { distinct = false; projections; from = [ Table { name = table; alias } ];
    where; group_by = []; having = None; order_by = []; limit = None;
    offset = None }

(** All table names referenced in a FROM tree (not subquery internals). *)
let rec from_tables = function
  | Table { name; _ } -> [ name ]
  | Subselect _ -> []
  | Join { left; right; _ } -> from_tables left @ from_tables right

let contains_aggregate e =
  fold_expr (fun acc n -> acc || match n with Agg _ -> true | _ -> false) false e

let collect_aggs exprs =
  let acc = ref [] in
  List.iter
    (fun e ->
      fold_expr
        (fun () n ->
          match n with
          | Agg a -> if not (List.mem a !acc) then acc := a :: !acc
          | _ -> ())
        () e)
    exprs;
  List.rev !acc

let map_statement_exprs (f : expr -> expr) (st : statement) : statement =
  let me e = map_expr_in ~deep:true f e in
  match st with
  | Select_stmt s -> Select_stmt (map_select f s)
  | Insert i ->
    let source =
      match i.source with
      | Values tuples -> Values (List.map (List.map me) tuples)
      | Query s -> Query (map_select f s)
    in
    Insert { i with source }
  | Update u ->
    let sets = List.map (fun (c, e) -> (c, me e)) u.sets in
    Update { u with sets; where = Option.map me u.where }
  | Delete d -> Delete { d with where = Option.map me d.where }
  | Call c -> Call { c with args = List.map me c.args }
  | Execute_stmt e -> Execute_stmt { e with eargs = List.map me e.eargs }
  | Create_table _ | Create_index _ | Drop_table _ | Alter_table_add_column _
  | Truncate _ | Copy_from _ | Begin_txn | Commit_txn | Rollback_txn
  | Prepare_transaction _ | Commit_prepared _ | Rollback_prepared _ | Vacuum _
  (* a stored prepared statement keeps its placeholders until EXECUTE *)
  | Prepare_stmt _ | Deallocate_stmt _ ->
    st

exception Unbound_param of int
(** [$n] had no binding. Raised with the parameter index so executor
    layers can attach the statement name and surface a typed error
    instead of a bare [Invalid_argument]. *)

(** Substitute [$n] parameters with constants, in subqueries too.
    Raises {!Unbound_param} when the list is too short for some [$n] in
    the tree. *)
let bind_params (params : Datum.t list) (st : statement) : statement =
  map_statement_exprs
    (function
      | Param i ->
        (match List.nth_opt params (i - 1) with
         | Some d -> Const d
         | None -> raise (Unbound_param i))
      | e -> e)
    st

(** The [$k] indexes [bind_params] meets, each once, in its traversal
    order. *)
let params (st : statement) : int list =
  let seen = ref [] in
  ignore
    (map_statement_exprs
       (function
         | Param i as e ->
           if not (List.mem i !seen) then seen := i :: !seen;
           e
         | e -> e)
       st);
  List.rev !seen

(** Inverse of [bind_params], over its traversal: every constant becomes
    a [$k], numbered left to right as the constants appear in the
    statement, and its value is returned at position [k - 1]. A
    statement that already holds placeholders is returned unchanged,
    with no values. *)
let lift_consts (st : statement) : statement * Datum.t list =
  let lifted = ref [] and n = ref 0 and has_params = ref false in
  let shape =
    map_statement_exprs
      (function
        | Const d ->
          incr n;
          lifted := d :: !lifted;
          Param !n
        | Param _ as e ->
          has_params := true;
          e
        | e -> e)
      st
  in
  if !has_params then (st, []) else (shape, List.rev !lifted)

(** Rename table references (FROM items, DML targets) via [f] — the core
    mechanism of shard-name rewriting in the Citus planners. *)
let rec rename_tables_from f = function
  | Table { name; alias } ->
    (* keep the original name visible as the alias so column qualifiers
       keep resolving after the rename *)
    let alias = Some (Option.value ~default:name alias) in
    Table { name = f name; alias }
  | Subselect (sel, a) -> Subselect (rename_tables_select f sel, a)
  | Join { left; right; kind; cond } ->
    Join
      { left = rename_tables_from f left;
        right = rename_tables_from f right;
        kind;
        cond }

and rename_tables_select f (s : select) : select =
  let in_expr e =
    map_expr
      (function
        | Exists (sel, n) -> Exists (rename_tables_select f sel, n)
        | In_subquery (e, sel, n) -> In_subquery (e, rename_tables_select f sel, n)
        | Scalar_subquery sel -> Scalar_subquery (rename_tables_select f sel)
        | e -> e)
      e
  in
  {
    s with
    from = List.map (rename_tables_from f) s.from;
    where = Option.map in_expr s.where;
    having = Option.map in_expr s.having;
    projections =
      List.map
        (function
          | Star -> Star
          | Star_of q -> Star_of q
          | Proj (e, a) -> Proj (in_expr e, a))
        s.projections;
  }

let rename_in_expr f e =
  map_expr
    (function
      | Exists (sel, n) -> Exists (rename_tables_select f sel, n)
      | In_subquery (e, sel, n) -> In_subquery (e, rename_tables_select f sel, n)
      | Scalar_subquery sel -> Scalar_subquery (rename_tables_select f sel)
      | e -> e)
    e

let rename_tables_statement f (st : statement) : statement =
  match st with
  | Select_stmt s -> Select_stmt (rename_tables_select f s)
  | Insert i ->
    let source =
      match i.source with
      | Values v -> Values v
      | Query s -> Query (rename_tables_select f s)
    in
    Insert { i with table = f i.table; source }
  | Update u ->
    Update
      { u with table = f u.table; where = Option.map (rename_in_expr f) u.where }
  | Delete d ->
    Delete
      { table = f d.table; where = Option.map (rename_in_expr f) d.where }
  | Copy_from c -> Copy_from { c with table = f c.table }
  | Truncate ts -> Truncate (List.map f ts)
  | Create_index ci -> Create_index { ci with table = f ci.table }
  | _ -> st
