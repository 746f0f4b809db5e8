(** Typed prepared-statement surface over a coordinator session.

    The supported client API for the OLTP hot path: [prepare] once,
    then [execute] with typed {!Datum.t} arguments. [execute] hands an
    [EXECUTE] AST node directly to the coordinator, where the
    distributed plan cache ({!Plancache}) reuses the memoized per-shard
    plan and only re-prunes the target shard from the bound
    distribution value — no parse, unlike ad-hoc SQL of the same shape,
    which shares the cache entry but pays its parse every call.

    A session's prepared statements are session-local state
    (PostgreSQL semantics); the plan cache behind them is cluster-wide
    and survives the session. *)

type t = Engine.Instance.session

(** Parse [sql] once and register it under [name]. Raises
    [Engine.Instance.Session_error] if [name] is already prepared or
    the statement kind is not preparable (only SELECT / INSERT /
    UPDATE / DELETE / CALL are). *)
val prepare : t -> name:string -> string -> unit

(** Run prepared statement [name] with positional arguments bound to
    [$1..$n]. A missing parameter surfaces as the typed
    {!Exec.Bind_error} message (parameter index + statement name), not
    a bare [Invalid_argument]. *)
val execute : t -> string -> Datum.t list -> Engine.Instance.result

(** Drop one prepared statement. Raises on unknown names. *)
val deallocate : t -> string -> unit

(** [DEALLOCATE ALL]. *)
val deallocate_all : t -> unit

(** Names currently prepared in this session, sorted. *)
val prepared_names : t -> string list

(** Plain one-shot SQL, for completeness — same as
    [Engine.Instance.exec]. *)
val exec : t -> string -> Engine.Instance.result
