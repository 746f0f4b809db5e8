let commit_records_table = "pg_dist_transaction"

let metrics (t : State.t) = Cluster.Topology.metrics t.State.cluster

(* All 2PC spans carry the coordinator's node name: phases run there,
   fanning out over connections whose statements trace on the workers. *)
let span (t : State.t) ~kind ?tags f =
  Obs.Trace.with_span
    (Cluster.Topology.trace t.State.cluster)
    ~now:(Cluster.Topology.now t.State.cluster)
    ~node:t.State.local.Cluster.Topology.node_name ~kind ?tags f

let node_session (node : Cluster.Topology.node) =
  Engine.Instance.connect node.Cluster.Topology.instance

let node_name conn = (Cluster.Connection.node conn).Cluster.Topology.node_name

let ensure_commit_records_table (t : State.t) =
  let text col_name =
    {
      Sqlfront.Ast.col_name;
      col_ty = Datum.TText;
      col_default = None;
      col_not_null = false;
    }
  in
  ignore
    (Engine.Instance.exec_ast (node_session t.State.local)
       (Sqlfront.Ast.Create_table
          {
            name = commit_records_table;
            columns =
              [
                text "gid";
                (* participant node: a record may only be collected
                   once this node confirms the gid is resolved *)
                text "node";
                (* coordinator-assigned HLC commit timestamp: recovery
                   re-stamps a deferred COMMIT PREPARED at exactly
                   this time, so the visibility fence survives every
                   failure of the commit fan-out *)
                text "ts";
              ];
            primary_key = [];
            if_not_exists = true;
            using_columnar = false;
          }))

let insert_commit_records coord_session ~ts records =
  (* inside the coordinator's own transaction: durable iff it commits *)
  let ctx = Engine.Instance.make_ctx coord_session in
  let ts_text = Txn.Hlc.to_string ts in
  ignore
    (Engine.Executor.run_insert ctx ~table:commit_records_table ~columns:None
       ~source:
         (Sqlfront.Ast.Values
            (List.map
               (fun (gid, node) ->
                 [
                   Sqlfront.Ast.Const (Datum.Text gid);
                   Sqlfront.Ast.Const (Datum.Text node);
                   Sqlfront.Ast.Const (Datum.Text ts_text);
                 ])
               records))
       ~on_conflict_do_nothing:false)

(* The one reader of the commit-record table: every (gid, node, ts) row,
   or only [gid]'s. Gids reach the filter verbatim; going through the
   executor with a [Datum.Text] constant keeps a hostile gid from
   escaping the string literal (no SQL re-parse of interpolated input).
   [ts] is [None] for a row without a readable stamp. Direct executor
   call: commit-record maintenance is lightweight, not a full planned
   statement. *)
let commit_records ?gid s =
  let column c = Sqlfront.Ast.Column (None, c) in
  let _, rows =
    Engine.Executor.run_select (Engine.Instance.make_ctx s)
      {
        Sqlfront.Ast.distinct = false;
        projections =
          List.map
            (fun c -> Sqlfront.Ast.Proj (column c, None))
            [ "gid"; "node"; "ts" ];
        from =
          [ Sqlfront.Ast.Table { name = commit_records_table; alias = None } ];
        where =
          Option.map
            (fun gid ->
              Sqlfront.Ast.Cmp
                ( Sqlfront.Ast.Eq,
                  column "gid",
                  Sqlfront.Ast.Const (Datum.Text gid) ))
            gid;
        group_by = [];
        having = None;
        order_by = [];
        limit = None;
        offset = None;
      }
  in
  List.filter_map
    (function
      | [| Datum.Text gid; Datum.Text node; ts |] ->
        let ts =
          match ts with Datum.Text s -> Txn.Hlc.of_string s | _ -> None
        in
        Some (gid, node, ts)
      | _ -> None)
    rows

let commit_record_count (t : State.t) =
  List.length (commit_records (node_session t.State.local))

let delete_record_in s gid =
  (* pre-built txn AST nodes: this runs on the commit path of every
     multi-shard write, so it must not parse ("BEGIN" strings included) *)
  ignore (Engine.Instance.exec_ast s Sqlfront.Ast.Begin_txn);
  let ctx = Engine.Instance.make_ctx s in
  (try
     ignore
       (Engine.Executor.run_delete ctx ~table:commit_records_table
          ~where:
            (Some
               (Sqlfront.Ast.Cmp
                  ( Sqlfront.Ast.Eq,
                    Sqlfront.Ast.Column (None, "gid"),
                    Sqlfront.Ast.Const (Datum.Text gid) ))))
   with e ->
     ignore (Engine.Instance.exec_ast s Sqlfront.Ast.Rollback_txn);
     raise e);
  ignore (Engine.Instance.exec_ast s Sqlfront.Ast.Commit_txn)

(* MX: a gid's commit records live on its {e origin} coordinator — the
   node named in the gid, which ran the 2PC and wrote the records in its
   local commit transaction. [origin_node] resolves that node when it is
   safe to consult: always for the local node, and for a foreign
   coordinator only while it is reachable (reading a crashed node's
   table would leak durability the network cannot provide — the gid
   stays pending until the origin returns). *)
let origin_node (t : State.t) origin =
  if String.equal origin t.State.local.Cluster.Topology.node_name then
    Some t.State.local
  else if State.reachable t origin then
    match Cluster.Topology.find_node t.State.cluster origin with
    | node -> Some node
    | exception Invalid_argument _ -> None
  else None

(* A prepared gid's fate under §3.7.2's rule. [records] is the origin
   session the commit record was read through (recovery deletes it
   there); [foreign] says the origin is another coordinator (MX). *)
type fate =
  | Commit of {
      ts : Txn.Hlc.timestamp option;
      records : Engine.Instance.session;
      foreign : bool;
    }
  | Rollback of { foreign : bool }
  | Pending
  | Unreachable of string  (** the origin, crashed or cut off *)

(* The one decision, shared by recovery and snapshot readers: a visible
   commit record on the origin means its coordinator committed — commit
   at the recorded timestamp; no record while the origin transaction has
   ended means it aborted — roll back; otherwise the 2PC is still in
   flight (records not yet durable), or the origin is crashed or
   unreachable, and the gid stays in doubt. *)
let fate (t : State.t) gid =
  match State.parse_gid gid with
  | None -> Pending
  | Some (origin, coord_xid) -> (
    match origin_node t origin with
    | None -> Unreachable origin
    | Some onode -> (
      let records = node_session onode in
      let foreign =
        not (String.equal origin t.State.local.Cluster.Topology.node_name)
      in
      match commit_records ~gid records with
      | (_, _, ts) :: _ -> Commit { ts; records; foreign }
      | [] ->
        if
          Txn.Manager.is_active
            (Engine.Instance.txn_manager onode.Cluster.Topology.instance)
            coord_xid
        then Pending
        else Rollback { foreign }))

let cleanup_session_txn_state (t : State.t) (st : State.session_state) =
  List.iter
    (fun key -> Hashtbl.remove t.State.registry key)
    st.State.dist_xids;
  st.State.dist_xids <- [];
  st.State.txn_conns <- [];
  st.State.prepared <- [];
  st.State.affinity <- [];
  st.State.commit_hlc <- None

(* The commit machinery runs as its own statement: each phase gets a
   fresh [statement_timeout] deadline (when the knob is set), so a
   stalled participant bounds PREPARE / COMMIT PREPARED instead of
   hanging the coordinator. *)
let phase_deadline (t : State.t) =
  let timeout = t.State.config.State.statement_timeout in
  if timeout > 0.0 then
    Some (Sim.Clock.now t.State.cluster.Cluster.Topology.clock +. timeout)
  else None

(* One 2PC phase over its participants: [f conn gid] runs as one fiber
   per (conn, gid), spawned and joined in list order, so the outcomes
   line up with [participants] whatever the interleaving. A failing
   participant never stops the others. *)
let fan_out (t : State.t) participants f =
  State.with_sched t (fun sched ->
      let fibers =
        List.map
          (fun (conn, gid) ->
            Sim.Sched.spawn sched ~node:(node_name conn) (fun () -> f conn gid))
          participants
      in
      (* bounded: every round trip inside a fiber carries the phase
         ?deadline; a ?deadline on the join would abandon a still-running
         fiber, whose failure then re-raises at scheduler exit *)
      List.map
        (fun fiber -> Sim.Sched.await_result sched fiber [@lint.unbounded])
        fibers)

(* Best-effort rollback of one participant: the node may be the one that
   just failed, so a failure is swallowed but counted, never invisible.
   With [~post] the rollback is sent fire-and-forget — a coordinator
   escaping a stall must not wait it out; recovery resolves anything the
   stalled node loses (a prepared transaction with no commit record is
   rolled back by the next pass). *)
let rollback_best_effort (t : State.t) ~post conn stmt =
  try
    if post then Exec.post_on_conn conn (Sqlfront.Deparse.statement stmt)
    else ignore (Exec.ast_on_conn_exn t conn stmt)
  with _ -> Health.record_ignored t.State.health (node_name conn)

let pre_commit (t : State.t) coord_session =
  let st = State.session_state t coord_session in
  (* MX accounting: this distributed transaction is being coordinated by
     a node other than the bootstrap coordinator *)
  if
    st.State.txn_conns <> []
    && not
         (String.equal t.State.local.Cluster.Topology.node_name
            t.State.cluster.Cluster.Topology.coordinator
              .Cluster.Topology.node_name)
  then Obs.Metrics.inc (metrics t) Obs.Metric_names.mx_worker_coordinated_txns;
  (* a write made by local execution commits with this node's own
     transaction, never through a delegated COMMIT *)
  let local_wrote =
    Option.fold ~none:false (Engine.Instance.current_xid coord_session)
      ~some:
        (Txn.Manager.wrote
           (Engine.Instance.txn_manager t.State.local.Cluster.Topology.instance))
  in
  match st.State.txn_conns with
  | [] -> ()
  | [ conn ] when not local_wrote ->
    (* single-node transaction: delegate the commit (§3.7.1) *)
    Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_delegated_commits;
    ignore (Exec.on_conn_exn t conn "COMMIT")
  | conns ->
    (* two-phase commit (§3.7.2) *)
    let coord_xid =
      match Engine.Instance.current_xid coord_session with
      | Some x -> x
      | None -> invalid_arg "pre_commit outside a transaction"
    in
    Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_started;
    let deadline = phase_deadline t in
    let prepared = ref [] in
    (try
       span t ~kind:"2pc.prepare"
         ~tags:[ ("participants", string_of_int (List.length conns)) ]
         (fun _sp ->
           (* gids are assigned in connection order before any fiber runs,
              so the gid sequence is independent of fiber interleaving *)
           let outcomes =
             fan_out t
               (List.map
                  (fun conn -> (conn, State.fresh_gid t ~coord_xid))
                  conns)
               (fun conn gid ->
                 ignore
                   (Exec.ast_on_conn_exn ?deadline t conn
                      (Sqlfront.Ast.Prepare_transaction gid));
                 (conn, gid))
           in
           (* kept newest first: the commit records and the COMMIT
              PREPARED fan-out follow this order *)
           prepared := List.rev (List.filter_map Result.to_option outcomes);
           match
             List.find_map
               (function Error e -> Some e | Ok _ -> None)
               outcomes
           with
           | Some e -> raise e
           | None -> ())
     with e ->
       Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_prepare_failed;
       (* a prepare failed: roll back everything and abort the
          coordinator. After a deadline expiry the rollbacks are posted:
          the coordinator must not wait out the very stall that expired
          the deadline. *)
       let post =
         match e with Cluster.Connection.Timed_out _ -> true | _ -> false
       in
       List.iter
         (fun (conn, gid) ->
           rollback_best_effort t ~post conn
             (Sqlfront.Ast.Rollback_prepared gid))
         !prepared;
       List.iter
         (fun conn ->
           if not (List.mem_assq conn !prepared) then
             rollback_best_effort t ~post conn Sqlfront.Ast.Rollback_txn)
         conns;
       st.State.prepared <- [];
       raise e);
    st.State.prepared <- !prepared;
    (* The distributed commit timestamp, drawn from the coordinator's
       HLC only after every PREPARE reply has been merged into it — so
       it dominates each participant's prepare stamp, and a reader whose
       snapshot predates any prepare can prove the commit is newer. *)
    let commit_ts =
      Txn.Hlc.now
        (Cluster.Topology.hlc t.State.cluster
           t.State.local.Cluster.Topology.node_name)
    in
    st.State.commit_hlc <- Some commit_ts;
    (* durable commit records, in the same local transaction *)
    insert_commit_records coord_session ~ts:commit_ts
      (List.map (fun (conn, gid) -> (gid, node_name conn)) !prepared);
    (* which commits at the same timestamp: a snapshot between two
       stamps would see only one half of the transaction *)
    Engine.Instance.set_pending_commit_ts coord_session (Some commit_ts)

let post_commit (t : State.t) coord_session =
  let st = State.session_state t coord_session in
  (match st.State.prepared with
   | [] -> ()
   | prepared ->
     span t ~kind:"2pc.commit"
       ~tags:[ ("participants", string_of_int (List.length prepared)) ]
       (fun _sp ->
         (* each COMMIT PREPARED is bounded by the phase deadline — a
            stuck one degrades to the deferred-commit path (the outcome
            is unknown exactly as for a lost reply; the commit record
            survives and recovery commits the prepared transaction
            later). Best effort; commit records are cleaned up lazily by
            the maintenance daemon, off the hot path. *)
         let deadline = phase_deadline t in
         let commit_ts = st.State.commit_hlc in
         let outcomes =
           fan_out t prepared (fun conn gid ->
               (* visibility fence: every participant commits at the same
                  coordinator-assigned timestamp *)
               Option.iter
                 (Cluster.Connection.set_next_commit_ts conn)
                 commit_ts;
               ignore
                 (Exec.ast_on_conn_exn ?deadline t conn
                    (Sqlfront.Ast.Commit_prepared gid)))
         in
         (* metrics / breaker accounting in participant list order, not
            completion order, so same-seed runs render identically *)
         List.iter2
           (fun (conn, _gid) outcome ->
             match outcome with
             | Ok () -> Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_committed
             | Error _ ->
               (* count it: tests and monitoring can assert recovery later
                  resolved exactly these *)
               Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_commit_deferred;
               Health.record_failed_commit t.State.health (node_name conn))
           prepared outcomes));
  cleanup_session_txn_state t st

let on_abort (t : State.t) coord_session =
  let st = State.session_state t coord_session in
  if st.State.txn_conns <> [] then
    Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_aborted;
  List.iter
    (fun conn ->
      (* an abort triggered by a statement timeout must not wait out the
         very stall it is escaping: post the rollback to a stalled node *)
      let post =
        match Cluster.Topology.fault t.State.cluster with
        | Some f -> Sim.Fault.node_stalled f (node_name conn)
        | None -> false
      in
      match List.assq_opt conn st.State.prepared with
      | Some gid ->
        (* prepared but the coordinator aborted before its commit record
           became visible: roll it back *)
        rollback_best_effort t ~post conn (Sqlfront.Ast.Rollback_prepared gid)
      | None -> rollback_best_effort t ~post conn Sqlfront.Ast.Rollback_txn)
    st.State.txn_conns;
  cleanup_session_txn_state t st

(* Garbage-collect commit records that have served their purpose: only
   once the record's own participant is reachable {e and} no longer lists
   the gid as prepared is it provably resolved. An unreachable or crashed
   participant keeps its record — its WAL may still hold a prepared
   transaction that recovery must commit after the node comes back, and
   deleting the record early would make recovery roll it back instead
   (an atomicity violation). Safe to re-run mid-partition any number of
   times. *)
let gc_resolved_records (t : State.t) =
  List.iter
    (fun (gid, node, _ts) ->
      if State.reachable t node then begin
        let mgr =
          Engine.Instance.txn_manager
            (Cluster.Topology.find_node t.State.cluster node)
              .Cluster.Topology.instance
        in
        if not (List.mem_assoc gid (Txn.Manager.prepared_transactions mgr))
        then delete_record_in (node_session t.State.local) gid
      end)
    (commit_records (node_session t.State.local))

(* §3.7.2, MX flavor: poll every reachable node's pending prepared
   transactions and apply each gid's {!fate} — any namespace, not just
   our own, so any coordinator's pass resolves any gid whose origin it
   can consult. Resolution runs over real connections, so an injected
   fault can kill any step — every step is therefore idempotent and
   simply retried by the next pass. *)
let recover (t : State.t) =
  span t ~kind:"2pc.recover" @@ fun recover_sp ->
  let committed = ref 0 and rolled_back = ref 0 in
  let local_name = t.State.local.Cluster.Topology.node_name in
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let name = node.Cluster.Topology.node_name in
      if State.reachable t name then begin
        match
          Cluster.Connection.open_ ~origin:local_name t.State.cluster node
        with
        | exception Cluster.Connection.Node_unavailable _ ->
          (* raced with a fresh crash/partition; next pass retries *)
          Health.record_failure t.State.health name
        | conn ->
          let resolve stmt ~foreign on_resolved =
            match Exec.ast_on_conn_exn t conn stmt with
            | _ ->
              on_resolved ();
              if foreign then
                Obs.Metrics.inc (metrics t)
                  Obs.Metric_names.mx_foreign_gids_resolved
            | exception _ ->
              (* lost round trip or fresh crash; the gid stays prepared
                 (a commit's record survives), so a later pass retries *)
              Health.record_ignored t.State.health name
          in
          (* polling the node's pg_prepared_xacts costs a round trip and
             is itself subject to faults *)
          (match Exec.on_conn_exn t conn "SELECT 1" with
           | _ ->
             List.iter
               (fun (gid, _xid) ->
                 match fate t gid with
                 | Pending | Unreachable _ -> ()
                 | Commit { ts; records; foreign } ->
                   (* deferred commit: re-stamp at the recorded
                      timestamp, so late resolution lands at the same
                      instant the live fan-out would have *)
                   Option.iter (Cluster.Connection.set_next_commit_ts conn) ts;
                   resolve (Sqlfront.Ast.Commit_prepared gid) ~foreign
                     (fun () ->
                       delete_record_in records gid;
                       incr committed)
                 | Rollback { foreign } ->
                   resolve (Sqlfront.Ast.Rollback_prepared gid) ~foreign
                     (fun () -> incr rolled_back))
               (Txn.Manager.prepared_transactions
                  (Engine.Instance.txn_manager node.Cluster.Topology.instance))
           | exception _ ->
             (* poll lost; Exec already recorded the failure *)
             Health.record_ignored t.State.health name)
      end)
    (Cluster.Topology.all_nodes t.State.cluster);
  gc_resolved_records t;
  Obs.Metrics.inc (metrics t) Obs.Metric_names.twopc_recover_passes;
  if !committed > 0 then
    Obs.Metrics.inc (metrics t) ~by:!committed Obs.Metric_names.twopc_recover_committed;
  if !rolled_back > 0 then
    Obs.Metrics.inc (metrics t) ~by:!rolled_back Obs.Metric_names.twopc_recover_rolled_back;
  Obs.Trace.add_tag recover_sp "committed" (string_of_int !committed);
  Obs.Trace.add_tag recover_sp "rolled_back" (string_of_int !rolled_back);
  (!committed, !rolled_back)

(* Read-triggered resolution of one in-doubt gid: a snapshot reader that
   hit the window between PREPARE and COMMIT PREPARED applies the gid's
   {!fate} itself instead of waiting for the next maintenance pass. Best
   effort, exactly like [recover]; the resolution statements are not
   reads and take no snapshot. They go over [conn] to the node the read
   ran on, or — after a local read — run on this node itself. *)
let resolve_in_doubt (t : State.t) ?conn ~gid () =
  let resolve ?ts stmt =
    try
      match conn with
      | Some conn ->
        Option.iter (Cluster.Connection.set_next_commit_ts conn) ts;
        ignore ((Exec.ast_on_conn_exn t conn stmt) [@lint.latest])
      | None ->
        let s = node_session t.State.local in
        Engine.Instance.set_pending_commit_ts s ts;
        ignore (Engine.Instance.exec_ast s stmt)
    with _ ->
      Health.record_ignored t.State.health
        (Option.fold conn ~some:node_name
           ~none:t.State.local.Cluster.Topology.node_name)
  in
  match fate t gid with
  | Pending -> `Pending
  | Unreachable origin -> `Unreachable origin
  | Commit { ts; _ } ->
    resolve ?ts (Sqlfront.Ast.Commit_prepared gid);
    Obs.Metrics.inc (metrics t) Obs.Metric_names.snapshot_indoubt_commits;
    `Resolved
  | Rollback _ ->
    resolve (Sqlfront.Ast.Rollback_prepared gid);
    Obs.Metrics.inc (metrics t) Obs.Metric_names.snapshot_indoubt_rollbacks;
    `Resolved
