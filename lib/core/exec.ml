(* The one documented execution boundary.

   Three overlapping entry points grew up under this layer: a
   breaker-feeding State wrapper, raw [Cluster.Connection] calls (no
   health accounting) and the [Adaptive_executor]/[Dist_executor]
   runners — each reporting infrastructure failures as a different
   exception. This module now owns the per-connection primitives: the
   [_exn] forms are the raising internals (network simulation guards +
   circuit-breaker accounting over [Connection.exec_async]), and [wrap]
   turns a whole execution into [Ok _ | Error of exec_error] for callers
   above the Citus layer. The executors themselves sit {e above} this
   module and build on the [_exn] forms.

   Deliberately NOT mapped to [Error]:
   - [Engine.Executor.Would_block] — a retryable lock-wait signal, part
     of normal control flow (see [Api.exec_with_retries]);
   - [Engine.Instance.Session_error] — a statement-level error that must
     abort the enclosing transaction through the engine's own path. *)

type exec_error =
  | Node_unavailable of { node : string; reason : string }
      (* fault-injection layer rejected the round trip *)
  | Network_error of string
      (* partition or crash observed mid-statement *)
  | Txn_replica_lost of string
      (* sole replica of in-transaction writes is gone; must abort *)
  | Catalog_error of string
      (* no active placement / unknown shard *)
  | Timed_out of { node : string }
      (* statement deadline expired waiting on the node — a gray
         failure: the node is alive, the statement may have executed *)
  | Bind_error of { stmt_name : string; param : int }
      (* EXECUTE did not supply a value for parameter $n of the
         prepared statement *)

exception Bind_failure of { stmt_name : string; param : int }

type bound = { stmt : Cluster.Connection.stmt; values : Datum.t list }

let error_message = function
  | Node_unavailable { node; reason } ->
    Printf.sprintf "node %s unavailable: %s" node reason
  | Network_error m -> m
  | Txn_replica_lost node ->
    Printf.sprintf
      "node %s failed holding the only replica of data this transaction \
       wrote; aborting to preserve atomicity"
      node
  | Catalog_error m -> m
  | Timed_out { node } ->
    Printf.sprintf
      "canceling statement due to statement timeout: node %s did not answer \
       before the deadline"
      node
  | Bind_error { stmt_name; param } ->
    Printf.sprintf "no value for parameter $%d in prepared statement %s" param
      stmt_name

let wrap f =
  match f () with
  | v -> Ok v
  | exception Cluster.Connection.Node_unavailable { node; reason } ->
    Error (Node_unavailable { node; reason })
  | exception Cluster.Connection.Timed_out { node; _ } ->
    Error (Timed_out { node })
  | exception State.Network_error m -> Error (Network_error m)
  | exception State.Txn_replica_lost node -> Error (Txn_replica_lost node)
  | exception Metadata.Catalog_error m -> Error (Catalog_error m)
  | exception Bind_failure { stmt_name; param } ->
    Error (Bind_error { stmt_name; param })

(* Execute on a connection, simulating the network: partition and
   injected-failure checks up front, then the split submit/await round
   trip (bounded by [?deadline], absolute virtual time). Every
   infrastructure-fault outcome feeds the node's circuit breaker;
   statement errors do not; a deadline expiry feeds the breaker's
   latency-aware trip signal instead of the failure one. [?snapshot]
   pins the remote session's read visibility for just this statement —
   a per-request header, not connection state, so an interleaved
   statement from another code path never inherits it. *)
let with_read_mode session snapshot f =
  match snapshot with
  | None -> f ()
  | Some mode ->
    let saved = Engine.Instance.read_mode session in
    Engine.Instance.set_read_mode session mode;
    Fun.protect
      ~finally:(fun () -> Engine.Instance.set_read_mode session saved)
      f

let guarded ?deadline ?snapshot (t : State.t) conn ~sql submit =
  let node = (Cluster.Connection.node conn).Cluster.Topology.node_name in
  let run () =
    try
      State.check_reachable t node;
      State.check_injected t node sql;
      let r =
        (Cluster.Connection.await ?deadline (submit ()) [@lint.blocking])
        (* boundary primitive: runs under every cluster driver (executor
           fibers, a lone task, or none: setup, maintenance) —
           Connection.await waits as [Topology.driver] says *)
      in
      Health.record_success t.State.health node;
      r
    with
    | (State.Network_error _ | Cluster.Connection.Node_unavailable _) as e ->
      (* both are infrastructure faults, not statement errors: they feed
         the breaker and stay distinguishable for the executors *)
      Health.record_failure t.State.health node;
      raise e
    | Cluster.Connection.Timed_out _ as e ->
      (* slow, not dead: sheds load via the breaker without ever counting
         toward failover's consecutive-failure bookkeeping *)
      Health.record_slow t.State.health node;
      raise e
  in
  with_read_mode (Cluster.Connection.session conn) snapshot run

let on_conn_exn ?deadline ?snapshot t conn sql =
  guarded ?deadline ?snapshot t conn ~sql (fun () ->
      Cluster.Connection.exec_async conn sql)

let ast_on_conn_exn ?deadline ?snapshot t conn stmt =
  on_conn_exn ?deadline ?snapshot t conn (Sqlfront.Deparse.statement stmt)

(* The same guards over a bound execute: injected failures match the
   worker-side statement's stored text. *)
let bound_on_conn_exn ?deadline ?snapshot t conn { stmt; values } =
  guarded ?deadline ?snapshot t conn ~sql:stmt.Cluster.Connection.stmt_text
    (fun () -> Cluster.Connection.exec_bound_async conn stmt values)

(* Local execution: no connection, so no network guard and no breaker
   accounting; any error is a statement error. *)
let local_exn ?snapshot session stmt =
  with_read_mode session snapshot (fun () ->
      Engine.Instance.exec_local session stmt)

let local_bound_exn ?snapshot session { stmt; values } =
  with_read_mode session snapshot (fun () ->
      Engine.Instance.exec_local_kept session stmt.Cluster.Connection.stmt_plan values)

(* Raw round trip: no partition check, no breaker accounting — for
   best-effort cleanup (ROLLBACK on a connection that just failed) and
   shard-local plumbing whose failures the caller counts itself. *)
let raw_on_conn_exn conn sql =
  (Cluster.Connection.(await (exec_async conn sql)) [@lint.blocking])

(* Fire-and-forget cleanup: submit, never wait for the reply. The only
   safe way to ROLLBACK at a node that may be stalled — a cancelling
   statement must not wait out the very stall it is escaping. *)
let post_on_conn conn sql = Cluster.Connection.post conn sql
