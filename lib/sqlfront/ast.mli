(** Abstract syntax of the SQL dialect.

    The dialect is the PostgreSQL subset the four workload patterns need:
    full SELECT with joins / subqueries / grouping / ordering, DML,
    DDL, COPY, transaction control including the 2PC verbs, and CALL for
    delegated stored procedures (§3.8). The Citus layer rewrites these
    trees (shard name substitution, aggregate decomposition) and deparses
    them back to SQL text to ship to workers — {!Deparse.statement} is the
    only sanctioned SQL printer (lint rule L1). *)

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
  | Prepare_transaction of string  (** the payload is the gid *)
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

(** {2 Structural helpers used across planners} *)

(** Pre-order fold over an expression tree (subquery selects are not
    descended; [In_subquery]'s needle expression is). *)
val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

(** [map_expr f e] rewrites bottom-up; [f] sees each rebuilt node, left
    to right in source order. Subquery selects are left untouched. *)
val map_expr : (expr -> expr) -> expr -> expr

(** [map_children ?sub r e] is [e] with [r] applied to each direct
    sub-expression, left to right in source order, and [sub] to each
    subquery select when given; without [sub] a subquery node is left
    untouched, an [In_subquery]'s needle too. *)
val map_children : ?sub:(select -> select) -> (expr -> expr) -> expr -> expr

(** Conjuncts of a WHERE clause: [a AND b AND c] -> [a; b; c]. *)
val conjuncts : expr -> expr list

(** Inverse of {!conjuncts}; [None] for the empty list. *)
val conjoin : expr list -> expr option

(** All table names referenced in a FROM tree (not subquery internals). *)
val from_tables : from_item -> string list

(** [SELECT projections FROM table [alias] [WHERE where]]. *)
val select_from :
  ?alias:string -> ?where:expr -> string -> projection list -> select

val contains_aggregate : expr -> bool

(** The distinct aggregates in [exprs], in order of first appearance. *)
val collect_aggs : expr list -> agg list

(** Map [f] over every expression in a statement, including nested FROM
    subselects but not WHERE, HAVING or select-list subqueries (the
    traversal {!lift_consts} lifts over). *)
val map_statement_exprs : (expr -> expr) -> statement -> statement

exception Unbound_param of int
(** A [$n] placeholder had no binding. Carries the parameter index so
    executor layers can attach the statement name and surface a typed
    error (see [Citus.Exec]) instead of a bare [Invalid_argument]. *)

(** Substitute [$n] parameters with constants, inside subqueries too.
    Raises {!Unbound_param} when the statement references a parameter
    with no value. *)
val bind_params : Datum.t list -> statement -> statement

(** The [$k] indexes {!bind_params} meets (subqueries included), each
    once, in its traversal order: the first one past the end of a value list is the parameter
    {!bind_params} would report unbound. *)
val params : statement -> int list

(** The filter expressions of a statement: WHERE and JOIN ... ON
    conditions, including those of FROM-clause subselects. *)
val filters : statement -> expr list

(** Inverse of {!bind_params}, over the same traversal: every constant
    it can reach becomes a [$k], numbered left to right in source order
    ([UPDATE t SET b = 5 WHERE a = 1] lifts to
    [UPDATE t SET b = $1 WHERE a = $2], as a hand-written PREPARE would
    number it), and the lifted values come back in [$k] order, so
    [bind_params vs s' = s] for [(s', vs) = lift_consts s]. This is how
    ad-hoc SQL becomes a plan-cache shape.

    Repeated literals in {!filters} share one [$k]
    ([a.k = 5 AND b.k = 5] lifts to [a.k = $1 AND b.k = $1], so the
    router sees one routing key) when they have the same constructor and
    an identical value; NaN and JSON never merge, and only the
    statement's first 16 literals are merge targets. Literals elsewhere
    (VALUES, SET, the select list) always get their own [$k]: routing
    never reads them, and merging them would split one statement into a
    shape per coincidence of its values.

    Literals inside WHERE, HAVING and select-list subqueries are not
    lifted. A statement that already holds placeholders, in a subquery
    too, is returned unchanged, with no values. *)
val lift_consts : statement -> statement * Datum.t list

(** {2 Table renaming}

    Rename table references (FROM items, DML targets) via a function — the
    core mechanism of shard-name rewriting in the Citus planners. The
    original name is kept visible as an alias so column qualifiers keep
    resolving after the rename. *)

val rename_tables_select : (string -> string) -> select -> select

val rename_tables_statement : (string -> string) -> statement -> statement
