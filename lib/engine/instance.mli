(** One MiniPG database node: catalog + transactions + sessions + hooks.

    This is the surface the Citus layer plugs into. Statement execution
    mirrors PostgreSQL (§3.1 of the paper):

    - a {b planner hook} may take over SELECT / DML statements,
    - a {b utility hook} may take over DDL / COPY / other commands,
    - {b UDFs} callable as [SELECT my_udf(...)] manipulate extension
      metadata (this is how [create_distributed_table] arrives),
    - {b transaction callbacks} fire at pre-commit / post-commit / abort,
    - a {b maintenance tick} stands in for background workers.

    Sessions never block: a statement that hits a conflicting lock raises
    {!Executor.Would_block}; the caller retries once the holder finishes.
    Each statement runs under a fresh snapshot (READ COMMITTED). *)

type t

type session

type result = Executor.result = {
  columns : string list;
  rows : Datum.t array list;
  affected : int;
  tag : string;  (** command tag, e.g. "SELECT", "INSERT" *)
}

exception Session_error of string

(** A statement with its [$k] unbound, its text (forced at most once)
    and its kept plan ({!Executor.run_kept}): a PREPARE, a statement of
    {!exec_bound}, a statement-cache template and the plan cache's
    worker-side statement of a shard group are all one. *)
type prepared = private {
  p_stmt : Sqlfront.Ast.statement;
  p_text : string Lazy.t;
  p_kept : Executor.kept;
}

val prepared : text:string Lazy.t -> Sqlfront.Ast.statement -> prepared

(** [create ~name ~buffer_pages ()] builds a node whose buffer pool holds
    [buffer_pages] logical pages (the memory-fit lever of every benchmark).
    When [obs] is given, every statement runs inside a trace span and the
    node's {!Meter} counters fold into the metrics registry as
    [engine.<name>.<field>]. *)
val create :
  ?seed:int -> ?buffer_pages:int -> ?obs:Obs.t -> name:string -> unit -> t

val name : t -> string

val catalog : t -> Catalog.t

val txn_manager : t -> Txn.Manager.t

val buffer_pool : t -> Storage.Buffer_pool.t

val meter : t -> Meter.t

(** The statements {!exec} parsed, by literal-normalized skeleton: its
    hit, miss and uncacheable counts. A template is kept as a
    {!prepared} statement whose text is its key. *)
val stmt_cache : t -> prepared Sqlfront.Stmt_cache.t


(** {2 Sessions} *)

val connect : t -> session

val session_instance : session -> t

val session_id : session -> int

(** A session dies when its node crashes; using a dead session raises
    {!Session_error}. The cluster layer checks this before each round
    trip to raise its own distinguishable error. *)
val session_alive : session -> bool

(** Server-side abort of an open transaction (the client disconnected or
    crashed). No-op on dead sessions and sessions with no open txn. *)
val abort_session : session -> unit

(** Execute one SQL statement. May raise {!Session_error},
    {!Executor.Would_block} (retry later), or parse errors. A text whose
    skeleton was seen before is served from its template, not parsed
    ({!Sqlfront.Stmt_cache}), and runs with the text's literals as
    {!exec_bound} runs a statement, from the template's kept plan when
    no UDF or hook claims it. The meter charges it as the parsed text. *)
val exec : session -> string -> result

val exec_ast : session -> Sqlfront.Ast.statement -> result

(** [exec_bound s ~close ?parse ~name values]: the extended query
    protocol's Close, Parse, Bind and Execute in one message. Drops the
    [close] names from the prepared-statement registry (unknown ones are
    ignored), stores [parse] (SQL text with [$k] placeholders) as [name]
    when given (replacing an earlier one), then binds [values] into the
    stored AST and runs it as {!exec_ast} would — hooks, implicit commit,
    trace span and {!Meter} charge are those of the same statement sent
    as text. It runs as a statement-cache hit of {!exec} does: a data
    statement the planner hook claims reaches the hook with [?hit], one
    that no UDF or hook claims runs from the plan kept with [name] (built
    at its first execution, rebuilt after a catalog change), and any
    other statement is bound. Raises {!Session_error} for an unknown
    [name] or a missing value. *)
val exec_bound :
  session ->
  close:string list ->
  ?parse:string ->
  name:string ->
  Datum.t list ->
  result

(** {2 Prepared statements}

    [PREPARE name AS stmt] / [EXECUTE name(args)] / [DEALLOCATE] are
    handled by {!exec_ast} with PostgreSQL semantics: the registry is
    session-scoped, duplicate PREPARE and unknown EXECUTE / DEALLOCATE
    names raise {!Session_error}. Extension hooks see the raw
    [Execute_stmt] node and use {!resolve_execute} to resolve the name
    and evaluate argument expressions (one implementation for hook and
    built-in paths). An EXECUTE no hook claims runs a data statement from
    the plan kept with its name, as {!exec_bound} does. *)

(** Kept plans built (a first execution, or a rebuild), run, and found
    stale by a catalog change, on this instance so far: those of
    statement-cache templates included. *)
val plan_stats : t -> Executor.plan_stats

(** The part of {!plan_stats} that statement-cache templates made. *)
val template_plan_stats : t -> Executor.plan_stats

(** Names prepared in this session, sorted. *)
val prepared_names : session -> string list

(** Resolve an EXECUTE: the prepared statement, whose text is the
    deparse of its stored shape (the plan cache keys EXECUTEs by it),
    and the evaluated argument datums. Raises {!Session_error} if the
    name is unknown. *)
val resolve_execute :
  session -> name:string -> args:Sqlfront.Ast.expr list -> prepared * Datum.t list

(** Feed COPY data rows (tab-separated text format, [\N] = NULL) into a
    table, inside the session's transaction. *)
val copy_in :
  session -> table:string -> columns:string list option -> string list -> int

(** True while the session is inside an explicit BEGIN block. *)
val in_transaction : session -> bool

(** Transaction id of the session's open transaction, if any. *)
val current_xid : session -> int option

(** {2 Distributed read visibility}

    [read_mode] selects how reads in this session treat distributed
    transactions (see {!Txn.Snapshot.read_mode}); the cluster layer sets
    it around each dispatched statement. [set_pending_commit_ts] arms
    the coordinator-assigned HLC commit timestamp that the next
    [COMMIT PREPARED] on this session will stamp — the out-of-band half
    of the 2PC visibility fence — or, armed by a pre-commit hook, the
    transaction's own COMMIT. [set_hlc] installs the node's hybrid
    logical clock into the transaction manager (wired by
    [Cluster.Topology] to the simulated, possibly skewed, node clock). *)

val set_read_mode : session -> Txn.Snapshot.read_mode -> unit

val read_mode : session -> Txn.Snapshot.read_mode

val set_pending_commit_ts : session -> Txn.Hlc.timestamp option -> unit

val set_hlc : t -> Txn.Hlc.t -> unit

(** Run the built-in utility implementation directly, bypassing the
    utility hook (extensions call this to apply DDL locally before
    propagating it). *)
val exec_utility_local : session -> Sqlfront.Ast.statement -> result

(** Local execution: run a shard statement (or COPY lines) in the
    session's own transaction, starting one if none is open. It is
    charged as the same statement sent as text, but runs no hook, no
    implicit commit and no span, and raises without failing the session:
    the statement that dispatched it owns all of those. *)
val exec_local : session -> Sqlfront.Ast.statement -> result

(** [exec_local_kept s p values] is {!exec_local} of [p]'s statement
    bound to [values], run from [p]'s kept plan. The caller has checked
    that [values] bind every [$k]. *)
val exec_local_kept : session -> prepared -> Datum.t list -> result

val copy_local :
  session -> table:string -> columns:string list option -> string list -> int

(** {2 Extension hooks} *)

(** [claims stmt] is false when the hook returns [None] for [stmt]
    whatever values its [$k] take: such a statement runs from a kept
    plan without the hook being asked. A statement-cache hit that
    [claims] reaches the hook as [?hit], its template and the text's
    literals, with the template as the statement, its [$k] unbound; so
    does a claimed statement of {!exec_bound}. If the hook declines it,
    it runs from its kept plan. *)
val set_planner_hook :
  t ->
  claims:(Sqlfront.Ast.statement -> bool) ->
  (session -> ?hit:prepared * Datum.t list -> Sqlfront.Ast.statement -> result option) ->
  unit

val set_utility_hook :
  t -> (session -> Sqlfront.Ast.statement -> result option) -> unit

val set_copy_hook :
  t ->
  (session -> table:string -> columns:string list option -> string list -> int option) ->
  unit

val register_udf : t -> string -> (session -> Datum.t list -> Datum.t) -> unit

val on_pre_commit : t -> (session -> unit) -> unit

val on_post_commit : t -> (session -> unit) -> unit

val on_abort : t -> (session -> unit) -> unit

val add_maintenance : t -> (t -> unit) -> unit

(** Run the maintenance daemon once: local deadlock detection (aborts the
    youngest transaction in a cycle), autovacuum, then registered hooks. *)
val maintenance_tick : t -> unit

(** {2 Administration} *)

(** Write a named restore point into the WAL (§3.9). *)
val create_restore_point : t -> string -> unit

(** {2 Crash and recovery}

    [crash] kills the node: every session from the current epoch dies and
    all in-memory state is considered lost (nothing is wiped eagerly —
    the node is simply unusable until recovery, which rebuilds from
    durable state). [recover_from_wal] brings it back: transaction state
    is reconstructed by {!Txn.Manager.crash_recover}, heap contents are
    replayed from the WAL at their original tids, indexes are rebuilt,
    and the buffer pool starts cold. Running (non-prepared) transactions
    vanish; prepared transactions survive with locks released (new
    writers conflict on tuple headers instead). Catalog definitions and
    columnar stripes are modeled as durable. *)

val crash : t -> unit

val recover_from_wal : t -> unit

(** [restart t] = [crash t; recover_from_wal t]. *)
val restart : t -> unit

(** Build an executor context for one execution of internal work (used by
    the Citus layer for shard operations that bypass SQL); [params] are
    its [$k] values. *)
val make_ctx : ?params:Datum.t array -> session -> Executor.ctx
