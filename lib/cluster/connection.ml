type stmt = {
  stmt_name : string;
  stmt_prepared : Engine.Instance.prepared;
  mutable stmt_live : bool;
  stmt_retired : int ref;
}

type t = {
  cluster : Topology.t;
  conn_node : Topology.node;
  origin : string option;  (** node name of the connecting side *)
  sess : Engine.Instance.session;
  origin_hlc : Txn.Hlc.t;
  dest_hlc : Txn.Hlc.t;
      (** both ends' clocks, resolved once: a node's HLC is never replaced *)
  stmts : (string, stmt) Hashtbl.t;
      (** statements this connection has prepared on its node, by name *)
  mutable closing : string list;
      (** retired names still prepared remotely: closed by the next bound
          execute's message *)
  mutable seen_retired : int;
      (** the owner's retirement count at this connection's last sweep *)
}

exception Node_unavailable of { node : string; reason : string }

exception Timed_out of { node : string; deadline : float }

let unavailable node reason = raise (Node_unavailable { node; reason })

let origin_name t = Option.value ~default:"client" t.origin

let open_ ?origin (cluster : Topology.t) (node : Topology.node) =
  Topology.fault_tick cluster;
  let to_ = node.Topology.node_name in
  let from_ = Option.value ~default:"client" origin in
  let metrics = Topology.metrics cluster in
  (match cluster.Topology.fault with
   | None -> ()
   | Some f ->
     (match Sim.Fault.check_connect f ~from_ ~to_ with
      | Sim.Fault.Deliver -> ()
      | Sim.Fault.Unreachable r
      | Sim.Fault.Drop_request r
      | Sim.Fault.Drop_reply r ->
        Obs.Metrics.inc metrics Obs.Metric_names.net_connect_failed;
        unavailable to_ r));
  Obs.Metrics.inc metrics (Obs.Metric_names.net_connect_to to_);
  cluster.Topology.net.connections_opened <-
    cluster.Topology.net.connections_opened + 1;
  {
    cluster;
    conn_node = node;
    origin;
    sess = Engine.Instance.connect node.instance;
    origin_hlc = Topology.hlc cluster from_;
    dest_hlc = Topology.hlc cluster to_;
    stmts = Hashtbl.create 8;
    closing = [];
    seen_retired = 0;
  }

let node t = t.conn_node

let session t = t.sess

let count_round_trip t =
  t.cluster.Topology.net.round_trips <- t.cluster.Topology.net.round_trips + 1;
  let cross =
    match t.origin with
    | Some o -> not (String.equal o t.conn_node.Topology.node_name)
    | None -> true
  in
  if cross then
    t.cluster.Topology.net.cross_round_trips <-
      t.cluster.Topology.net.cross_round_trips + 1

(* One faulty round trip: consult the plan before running [run], fire
   armed crash-after-statement triggers after. On [Drop_reply] (and on
   armed crashes that lose the reply) the statement {e does} execute —
   only the caller's view of it fails, which is exactly the ambiguity
   2PC recovery has to resolve. *)
let round_trip t ~sql run =
  count_round_trip t;
  Topology.fault_tick t.cluster;
  let node_name = t.conn_node.Topology.node_name in
  let metrics = Topology.metrics t.cluster in
  match t.cluster.Topology.fault with
  | None -> run ()
  | Some f ->
    (match
       Sim.Fault.check_round_trip f ~from_:(origin_name t) ~to_:node_name ~sql
     with
     | Sim.Fault.Deliver -> ()
     | Sim.Fault.Unreachable r | Sim.Fault.Drop_request r ->
       Obs.Metrics.inc metrics Obs.Metric_names.net_round_trip_lost;
       unavailable node_name r
     | Sim.Fault.Drop_reply r ->
       (* the request got through: execute, then lose the reply (even an
          error reply is lost, hence the catch-all) *)
       Obs.Metrics.inc metrics Obs.Metric_names.net_reply_lost;
       (try ignore (run ()) with _ -> ());
       unavailable node_name r);
    if not (Engine.Instance.session_alive t.sess) then
      unavailable node_name "session died in a node crash";
    let result = run () in
    (match Sim.Fault.after_statement f ~node:node_name ~sql with
     | `Proceed -> result
     | `Crashed lose_reply ->
       if lose_reply then
         unavailable node_name "node crashed executing the statement"
       else result)

(* Split submit/await round trip. The whole statement — fault-plan
   consultation, execution, armed crash triggers — happens at the submit
   point ([exec_async]); the handle carries the outcome plus the virtual
   time at which the reply arrives ([h_ready_at], priced by the fault
   plan's latency model). This pins every [Sim.Fault] RNG draw to the
   submission order, so scheduler interleavings of the awaits cannot
   shift the deterministic fault stream — a "slow" node is simply one
   whose replies are ready far in the future. *)
type handle = {
  h_conn : t;
  h_ready_at : float;  (** absolute virtual time the reply lands *)
  h_result : (Engine.Instance.result, exn) result;
  h_reply_ts : Txn.Hlc.timestamp option;
      (** destination HLC stamp on the reply, merged into the origin's
          clock when the reply is awaited *)
}

(* Submit [remote] as one round trip; [sql] is what the fault plan
   matches. [on_reply] runs once the reply has arrived intact. *)
let submit ?(on_reply = ignore) t ~sql remote =
  let latency =
    match t.cluster.Topology.fault with
    | None -> 0.0
    | Some f ->
      Sim.Fault.round_trip_latency f ~to_:t.conn_node.Topology.node_name
  in
  let ready_at = Sim.Clock.now t.cluster.Topology.clock +. latency in
  (* HLC piggyback: the request carries the origin's send stamp, the
     destination merges it before executing (so any commit it stamps
     dominates everything the origin has seen), and the reply carries a
     stamp drawn after execution. Drop_request never reaches the
     destination; a dropped reply executes but loses the stamp along
     with the result. *)
  let req_ts = Txn.Hlc.now t.origin_hlc in
  let reply_ts = ref None in
  let run () =
    ignore (Txn.Hlc.observe t.dest_hlc req_ts : Txn.Hlc.timestamp);
    let r = remote t.sess in
    reply_ts := Some (Txn.Hlc.now t.dest_hlc);
    r
  in
  match round_trip t ~sql run with
  | r ->
    t.cluster.Topology.net.rows_shipped <-
      t.cluster.Topology.net.rows_shipped + List.length r.Engine.Instance.rows;
    on_reply ();
    { h_conn = t; h_ready_at = ready_at; h_result = Ok r; h_reply_ts = !reply_ts }
  | exception e ->
    { h_conn = t; h_ready_at = ready_at; h_result = Error e; h_reply_ts = None }

let exec_async t sql = submit t ~sql (fun sess -> Engine.Instance.exec sess sql)

let retire s =
  if s.stmt_live then begin
    s.stmt_live <- false;
    incr s.stmt_retired
  end

(* Parse once, bind many: the message carries the DEALLOCATEs of retired
   statements, the Parse of [s] if this connection has not prepared it,
   and the Bind/Execute of [values]. The registry changes only once the
   reply arrives; the worker takes a repeated Parse or Close in its
   stride, so a lost reply just means they are sent again. *)
let exec_bound_async t s values =
  if !(s.stmt_retired) <> t.seen_retired then begin
    t.seen_retired <- !(s.stmt_retired);
    Hashtbl.filter_map_inplace
      (fun name p ->
        if p.stmt_live then Some p
        else begin
          t.closing <- name :: t.closing;
          None
        end)
      t.stmts
  end;
  let text = Lazy.force s.stmt_prepared.Engine.Instance.p_text in
  let parse = if Hashtbl.mem t.stmts s.stmt_name then None else Some text in
  let close = t.closing in
  let metrics = Topology.metrics t.cluster in
  if parse <> None then
    Obs.Metrics.inc metrics Obs.Metric_names.exec_worker_prepares;
  Obs.Metrics.inc metrics Obs.Metric_names.exec_worker_bound_executes;
  submit t ~sql:text
    ~on_reply:(fun () ->
      (* nothing else ran on [t] since [close] was read *)
      if close <> [] then t.closing <- [];
      if parse <> None then
        if s.stmt_live then Hashtbl.replace t.stmts s.stmt_name s
        else t.closing <- s.stmt_name :: t.closing)
    (fun sess ->
      Engine.Instance.exec_bound sess ~close ?parse ~name:s.stmt_name values)

let prepared_names t =
  List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.stmts [])

let exec_ast_async t stmt = exec_async t (Sqlfront.Deparse.statement stmt)

let await ?deadline h =
  let cluster = h.h_conn.cluster in
  (match deadline with
   | Some dl when h.h_ready_at > dl ->
     (* the reply will not land in time: wait out the deadline itself,
        then report the typed timeout — the statement may well have
        executed remotely, exactly the ambiguity a lost reply has *)
     Topology.wait_until cluster ~until_:dl;
     Obs.Metrics.inc (Topology.metrics cluster) Obs.Metric_names.net_await_timed_out;
     raise
       (Timed_out { node = h.h_conn.conn_node.Topology.node_name; deadline = dl })
   | _ ->
     (* a fiber sleep under a scheduler lets a statement on a healthy
        node overtake one stuck behind a stall *)
     Topology.wait_until cluster ~until_:h.h_ready_at);
  (match h.h_reply_ts with
   | Some ts ->
     ignore (Txn.Hlc.observe h.h_conn.origin_hlc ts : Txn.Hlc.timestamp)
   | None -> ());
  match h.h_result with Ok r -> r | Error e -> raise e

(* Submit and walk away: the outcome (and its latency) is deliberately
   dropped. For best-effort cleanup — a ROLLBACK posted at a stalled
   node must not make the cancelling statement wait out the stall. *)
let post t text = ignore (exec_async t text : handle)

(* Dual-mode boundary, like [Exec.on_conn_exn]: [await] picks fiber
   sleep or clock advance depending on whether a scheduler is driving
   the cluster, so [exec]/[exec_ast]/[copy] serve both fiber code and
   the setup / DDL / maintenance paths that run without one.
   Statement-path code wants [Exec] (deadline + breaker accounting)
   instead. *)
let awaited h = await h [@@lint.blocking]

let exec t text = awaited (exec_async t text)

let exec_ast t stmt = exec t (Sqlfront.Deparse.statement stmt)

(* A round trip like any other, so the reply's HLC stamp reaches the
   origin: a snapshot read after the COPY sees its rows. The lines count
   as shipped rows. *)
let copy t ~table ~columns lines =
  let sql = Printf.sprintf "COPY %s FROM STDIN" table in
  let net = t.cluster.Topology.net in
  let shipped () = net.rows_shipped <- net.rows_shipped + List.length lines in
  let copied sess =
    let n = Engine.Instance.copy_in sess ~table ~columns lines in
    { Engine.Instance.columns = []; rows = []; affected = n; tag = "COPY" }
  in
  (awaited (submit t ~sql ~on_reply:shipped copied)).affected

let in_transaction t = Engine.Instance.in_transaction t.sess

let backend_xid t = Engine.Instance.current_xid t.sess

(* Out-of-band session channels for the distributed-snapshot protocol.
   These ride "inside" the next round trip rather than paying one of
   their own — the wire format would carry them as message headers. *)

let set_next_commit_ts t ts =
  Engine.Instance.set_pending_commit_ts t.sess (Some ts)
