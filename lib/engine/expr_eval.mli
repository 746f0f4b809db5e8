(** Expression compilation and evaluation.

    [compile] resolves column references against a row schema once and
    returns a closure evaluated per row. SQL three-valued logic is
    implemented here: [Datum.Null] propagates through comparisons and
    arithmetic, and boolean connectives follow Kleene logic; a WHERE clause
    treats NULL as false ({!eval_bool}).

    Aggregates must be rewritten away by the executor before compiling
    ([Agg] nodes raise {!Eval_error}); correlated subqueries are not
    supported (matching the paper's §7 limitation) — each subquery runs
    at most once per execution.

    A compiled expression is kept and run many times (a prepared
    statement's plan), so it reads everything that belongs to one
    execution — the [$k] values, [now()], the random generator, the
    subqueries' results — from the execution it is given, through a
    {!runtime}; nothing of one execution is captured at compile time. *)

exception Eval_error of string

(** One column of the row layout an expression is compiled against. *)
type rcol = { rq : string option; rname : string }

type schema = rcol list

(** How compiled code reads one execution ['x]. *)
type 'x runtime = {
  x_params : 'x -> Datum.t array;  (** [$k] is element [k - 1] *)
  x_now : 'x -> float;
  x_rng : 'x -> Random.State.t;  (** deterministic per-node generator for random() *)
  x_subquery : Sqlfront.Ast.select -> 'x -> Datum.t array list;
      (** applied to a subquery at compile time (to plan it once), then to
          each execution that needs its rows *)
}

(** [compile schema rt e] resolves [e] against [schema] once; the result
    evaluates it for one execution and one row. An uncorrelated subquery
    runs at most once per execution (an InitPlan); executions are told
    apart physically, so each must be a fresh value. *)
val compile :
  schema -> 'x runtime -> Sqlfront.Ast.expr -> 'x -> Datum.t array -> Datum.t

(** A one-off evaluation outside any statement: no [$k]. *)
type env = {
  rng : Random.State.t;
  now : float;
  subquery : Sqlfront.Ast.select -> Datum.t array list;
}

(** [eval env e] is the value of [e], which references no column. *)
val eval : env -> Sqlfront.Ast.expr -> Datum.t

(** [read_quoted ty lit] is how a quoted literal [lit] compares with a
    value of type [ty]: cast to [ty] when that is bigint or float and the
    text holds one, else unchanged. B-tree probes use it so that an index
    finds what a scan's comparison matches. *)
val read_quoted : Datum.ty -> Datum.t -> Datum.t

(** Filter semantics: NULL and false both reject. *)
val eval_bool : ('x -> Datum.t array -> Datum.t) -> 'x -> Datum.t array -> bool

(** [resolve schema q name] is the row position of a column reference.
    Raises {!Eval_error} on unknown or ambiguous references. *)
val resolve : schema -> string option -> string -> int

(** SQL LIKE pattern matching ([%] and [_] wildcards); exposed for tests. *)
val like_match : pattern:string -> ci:bool -> string -> bool
