(** Expression compilation and evaluation.

    [compile] resolves column references against a row schema once and
    returns a closure evaluated per row. SQL three-valued logic is
    implemented here: [Datum.Null] propagates through comparisons and
    arithmetic, and boolean connectives follow Kleene logic; a WHERE clause
    treats NULL as false ({!eval_bool}).

    Aggregates must be rewritten away by the executor before compiling
    ([Agg] nodes raise {!Eval_error}); correlated subqueries are not
    supported (matching the paper's §7 limitation) — subqueries are
    executed once via the [subquery] callback. *)

exception Eval_error of string

(** One column of the row layout an expression is compiled against. *)
type rcol = { rq : string option; rname : string }

type schema = rcol list

type env = {
  rng : Random.State.t;  (** deterministic per-node generator for random() *)
  now : float;
  subquery : Sqlfront.Ast.select -> Datum.t array list;
}

val compile : schema -> env -> Sqlfront.Ast.expr -> Datum.t array -> Datum.t

(** [read_quoted ty lit] is how a quoted literal [lit] compares with a
    value of type [ty]: cast to [ty] when that is bigint or float and the
    text holds one, else unchanged. B-tree probes use it so that an index
    finds what a scan's comparison matches. *)
val read_quoted : Datum.ty -> Datum.t -> Datum.t

(** Filter semantics: NULL and false both reject. *)
val eval_bool : (Datum.t array -> Datum.t) -> Datum.t array -> bool

(** [resolve schema q name] is the row position of a column reference.
    Raises {!Eval_error} on unknown or ambiguous references. *)
val resolve : schema -> string option -> string -> int

(** SQL LIKE pattern matching ([%] and [_] wildcards); exposed for tests. *)
val like_match : pattern:string -> ci:bool -> string -> bool
