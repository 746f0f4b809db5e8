(** Unified typed execution boundary.

    Every per-connection statement the Citus layer sends goes through
    here. The [_exn] forms are the raising primitives — partition /
    injected-failure guards plus circuit-breaker accounting over
    {!Cluster.Connection.exec_async} — used by the executors and by
    engine-internal code whose control flow is exceptions (2PC cleanup
    paths). Callers above the Citus layer run whole executions under
    {!wrap}, which returns [Ok result | Error of exec_error] with the
    failure cause as a structured variant.

    Two exceptions intentionally still propagate everywhere, because
    they are control flow rather than infrastructure failures:
    {!Engine.Executor.Would_block} (retryable lock wait) and
    [Engine.Instance.Session_error] (statement error that must abort the
    transaction through the engine's own path). *)

type exec_error =
  | Node_unavailable of { node : string; reason : string }
      (** the fault-injection layer rejected the round trip *)
  | Network_error of string
      (** partition or crash observed mid-statement *)
  | Txn_replica_lost of string
      (** the sole replica of in-transaction writes is gone; abort *)
  | Catalog_error of string  (** no active placement / unknown shard *)
  | Timed_out of { node : string }
      (** the statement deadline expired waiting on the node — a gray
          failure: the node is alive and the statement {e may} have
          executed remotely (same ambiguity as a lost reply) *)
  | Bind_error of { stmt_name : string; param : int }
      (** EXECUTE supplied no value for parameter [$param] of prepared
          statement [stmt_name] — a client protocol error, typed so the
          prepared-statement dispatch can report the exact parameter
          instead of a bare [Invalid_argument] *)

(** Raised by the prepared-statement bind step; {!wrap} maps it to
    [Error (Bind_error _)]. *)
exception Bind_failure of { stmt_name : string; param : int }

(** A plan-cache hit's statement on the wire: the worker-side prepared
    statement of the task's shard group, and the values it binds. *)
type bound = { stmt : Cluster.Connection.stmt; values : Datum.t list }

(** Human-readable rendering, used for session error messages. *)
val error_message : exec_error -> string

(** Run any thunk, mapping the infrastructure exceptions (including
    {!Cluster.Connection.Timed_out}) to [Error]. The planner hook wraps
    whole plan executions in it. *)
val wrap : (unit -> 'a) -> ('a, exec_error) result

(** Execute on a connection, simulating the network: raises
    {!State.Network_error} if the target node is partitioned away or an
    injected failure matches, lets {!Cluster.Connection.Node_unavailable}
    from the fault layer through unchanged, and feeds every
    infrastructure-fault outcome (but no statement error) into the
    node's circuit breaker. [?deadline] (absolute virtual time) bounds
    the await: expiry raises {!Cluster.Connection.Timed_out} and feeds
    {!Health.record_slow} — the latency-aware trip — instead of the
    hard-failure path. [?snapshot] pins the remote session's read
    visibility ({!Txn.Snapshot.read_mode}) for just this statement —
    set before the round trip and restored after, like a per-request
    header — so every fragment of a multi-shard read observes the same
    HLC snapshot and an interleaved statement never inherits it. *)
val on_conn_exn :
  ?deadline:float ->
  ?snapshot:Txn.Snapshot.read_mode ->
  State.t ->
  Cluster.Connection.t ->
  string ->
  Engine.Instance.result

(** Deparse and {!on_conn_exn}. *)
val ast_on_conn_exn :
  ?deadline:float ->
  ?snapshot:Txn.Snapshot.read_mode ->
  State.t ->
  Cluster.Connection.t ->
  Sqlfront.Ast.statement ->
  Engine.Instance.result

(** {!on_conn_exn} over a bound execute of a worker-side prepared
    statement ({!Cluster.Connection.exec_bound_async}): the same guards,
    breaker accounting and snapshot header, with injected failures
    matched against the statement's stored text. *)
val bound_on_conn_exn :
  ?deadline:float ->
  ?snapshot:Txn.Snapshot.read_mode ->
  State.t ->
  Cluster.Connection.t ->
  bound ->
  Engine.Instance.result

(** Local execution ({!Engine.Instance.exec_local}) of a task placed on
    the session's own node: no network guard, no breaker accounting.
    [?snapshot] pins the session's visibility for this statement. A
    [bound] task runs its worker-side statement's kept plan with its
    values ({!Engine.Instance.exec_local_kept}) in place of the
    statement. *)
val local_exn :
  ?snapshot:Txn.Snapshot.read_mode ->
  ?bound:bound ->
  Engine.Instance.session ->
  Sqlfront.Ast.statement ->
  Engine.Instance.result

(** Raw round trip: no partition guard, no breaker accounting — for
    best-effort cleanup on connections that may be mid-failure and for
    shard-local plumbing that counts its own failures. Prefer
    {!on_conn_exn} when a {!State.t} is at hand. *)
val raw_on_conn_exn : Cluster.Connection.t -> string -> Engine.Instance.result

(** Submit and never await: fire-and-forget cleanup (ROLLBACK posted at
    a node that may be stalled — waiting for its reply would mean
    waiting out the very stall the caller is escaping). The statement
    still executes remotely; its outcome is dropped. *)
val post_on_conn : Cluster.Connection.t -> string -> unit
