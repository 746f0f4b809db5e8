open Sqlfront

type report = {
  makespan : float;
  connections_used : (string * int) list;
  conn_opened_at : (string * float list) list;
  round_trips : int;
  serial_time : float;
  node_serial : (string * float) list;
}

let is_write (stmt : Ast.statement) =
  match stmt with
  | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Create_table _
  | Ast.Create_index _
  | Ast.Truncate _ | Ast.Alter_table_add_column _ | Ast.Drop_table _
  | Ast.Copy_from _ ->
    true
  | _ -> false

(* Measure the resource demand of running [f] on [node]: meter + buffer
   pool diffs converted to solo elapsed seconds. The computation itself
   is instantaneous on the virtual clock; the executor then {e sleeps}
   its fiber for this duration, which is what advances the clock and
   makes fragment concurrency observable. *)
let measured (node : Cluster.Topology.node) f =
  let inst = node.Cluster.Topology.instance in
  let meter = Engine.Instance.meter inst and pool = Engine.Instance.buffer_pool inst in
  let before = Engine.Meter.read meter and misses = Storage.Buffer_pool.misses pool in
  let result = f () in
  let demand =
    Sim.Cost.demand ~spec:node.Cluster.Topology.spec
      ~cpu_units:(Engine.Meter.units_since meter before)
      ~misses:(Storage.Buffer_pool.misses pool - misses)
  in
  let duration =
    Sim.Cost.solo_elapsed ~spec:node.Cluster.Topology.spec ~parallelism:1 demand
  in
  (result, duration)

(* Deadlock-graph membership: transaction [xid] on [node] — a worker's,
   or with local execution the session's own — belongs to the session's
   distributed transaction, so its waits join one cancellable vertex. *)
let register_member st_state (t : State.t) coord_session ~node xid =
  match Engine.Instance.current_xid coord_session with
  | Some coord_xid when not (Hashtbl.mem t.State.registry (node, xid)) ->
    Hashtbl.replace t.State.registry (node, xid)
      ( Engine.Instance.name (Engine.Instance.session_instance coord_session),
        coord_xid );
    st_state.State.dist_xids <- (node, xid) :: st_state.State.dist_xids
  | _ -> ()

(* Active replicas that can serve [task], planned node first, circuit-open
   nodes last. Falls back to the planned node when the shard is unknown or
   has lost every active placement. *)
let replica_nodes (t : State.t) (task : Plan.task) =
  let fallback = [ task.Plan.task_node ] in
  if task.Plan.task_shard < 0 then fallback
  else
    match Metadata.placements t.State.metadata task.Plan.task_shard with
    | exception Metadata.Catalog_error _ -> fallback
    | [ _ ] as one -> one
    | nodes ->
      let score n =
        (if State.node_available t n then 0 else 2)
        + if String.equal n task.Plan.task_node then 0 else 1
      in
      List.stable_sort (fun a b -> Int.compare (score a) (score b)) nodes

(* A replicated write lost one replica: mark that placement — and its
   colocated siblings on the same node, so router planning stays aligned —
   Inactive until the repair daemon re-copies them. *)
let mark_placement_lost (t : State.t) ~shard_id ~node =
  let meta = t.State.metadata in
  match Metadata.shard_by_id meta shard_id with
  | None -> ()
  | Some shard ->
    List.iter
      (fun (s : Metadata.shard) ->
        match
          Metadata.placement_state_of meta ~shard_id:s.Metadata.shard_id ~node
        with
        | Some Metadata.Active ->
          Metadata.mark_placement t.State.metadata
            ~shard_id:s.Metadata.shard_id ~node Metadata.Inactive
        | _ -> ())
      (Metadata.colocated_shards meta shard)

(* Withdrawing a failed connection from a transaction discards EVERY
   write the transaction made through it — the rollback (or the crash
   that killed it) undoes them all, not only the failing statement's.
   Any shard group pinned to the connection is therefore stale on that
   node: mark each one Inactive so reads stop landing there until the
   repair daemon re-copies it. A group with no other active replica
   cannot be repaired — committing would silently lose its writes — so
   that aborts the whole transaction ({!State.Txn_replica_lost}). *)
let withdraw_txn_conn (t : State.t) st conn ~node =
  st.State.txn_conns <- List.filter (fun c -> c != conn) st.State.txn_conns;
  (* post, never await: the node just failed, and a gray failure there
     would make the withdrawal wait out the very stall the failover is
     escaping. The outcome is irrelevant — the writes are discarded
     whether the ROLLBACK lands or the crash already undid them — but
     count the fire-and-forget so monitoring sees the withdrawal. *)
  Exec.post_on_conn conn "ROLLBACK";
  Health.record_ignored t.State.health node;
  let groups =
    List.filter_map
      (fun ((n, g), c) ->
        if c == conn && String.equal n node && g >= 0 then Some g else None)
      st.State.affinity
  in
  st.State.affinity <- List.filter (fun (_, c) -> c != conn) st.State.affinity;
  let fatal = ref false in
  if groups <> [] then
    List.iter
      (fun (dt : Metadata.dist_table) ->
        match Metadata.shards_of t.State.metadata dt.Metadata.dt_name with
        | exception Metadata.Not_distributed _ -> ()
        | shards ->
          List.iter
            (fun (s : Metadata.shard) ->
              if
                List.mem s.Metadata.index_in_colocation groups
                && Metadata.placement_state_of t.State.metadata
                     ~shard_id:s.Metadata.shard_id ~node
                   = Some Metadata.Active
              then
                if
                  List.exists
                    (fun n -> not (String.equal n node))
                    (try
                       Metadata.placements t.State.metadata
                         s.Metadata.shard_id
                     with Metadata.Catalog_error _ -> [])
                then mark_placement_lost t ~shard_id:s.Metadata.shard_id ~node
                else fatal := true)
            shards)
      (Metadata.all_tables t.State.metadata);
  if !fatal then raise (State.Txn_replica_lost node)

(* Per-statement, per-node accounting: which connections are running a
   fragment right now, how many slow-start ramp slots the statement has
   committed to, the virtual times at which it actually opened new
   connections, and the modelled time of the fragments run there. *)
type stmt_pool = {
  sp_node : Cluster.Topology.node;
  mutable sp_busy : Cluster.Connection.t list;
  mutable sp_ramp : int;
  mutable sp_opened_at : float list;  (* reverse order *)
  mutable sp_used : Cluster.Connection.t list;
  sp_cond : Sim.Sched.cond;
  mutable sp_fragments : int;
  mutable sp_serial : float;
}

let pool_name p = p.sp_node.Cluster.Topology.node_name

(* What every task of one statement shares. Built once per statement,
   so the functions below are plain calls, not per-statement closures. *)
type ctx = {
  t : State.t;
  session : Engine.Instance.session;
  st : State.session_state;
  bound : Exec.bound option;
  explicit : bool;
  m : Obs.Metrics.t;
  trace : Obs.Trace.t;
  clock : Sim.Clock.t;
  started_at : float;
  deadline : float option;
      (** statement_timeout, absolute: the statement completes or fails
          typed within it plus one suspension of virtual time *)
  snapshot_mode : Txn.Snapshot.read_mode option;
  multi_fragment : bool;
  parent_span : Obs.Trace.span option;
      (** captured before any fiber exists, never from the open-span
          stack interleaved fibers may be mutating *)
  mutable pools : stmt_pool list;  (** at most one per node *)
}

let pool_for c node_name =
  let rec find = function
    | p :: rest -> if String.equal (pool_name p) node_name then p else find rest
    | [] ->
      let p =
        {
          sp_node = Cluster.Topology.find_node c.t.State.cluster node_name;
          sp_busy = [];
          sp_ramp = 0;
          sp_opened_at = [];
          sp_used = [];
          sp_cond = Sim.Sched.make_cond ();
          sp_fragments = 0;
          sp_serial = 0.0;
        }
      in
      c.pools <- p :: c.pools;
      p
  in
  find c.pools

(* Another fiber of this statement holds the connection a task needs:
   wait for its release. A lone task never waits so — nothing else of
   its statement runs — and sleeps through a ramp gate instead. *)
let wait ?sched pool =
  match sched with
  | Some sched -> Sim.Sched.wait sched pool.sp_cond
  | None -> assert false

let take pool conn =
  pool.sp_busy <- conn :: pool.sp_busy;
  if not (List.memq conn pool.sp_used) then pool.sp_used <- conn :: pool.sp_used;
  conn

let open_new c pool ~forced =
  match State.checkout c.t c.st ~force:forced pool.sp_node with
  | Some fresh ->
    Obs.Metrics.inc c.m Obs.Metric_names.exec_conn_opened;
    pool.sp_opened_at <- Sim.Clock.now c.clock :: pool.sp_opened_at;
    Some (take pool fresh)
  | None -> None

(* Pick / open the connection for a task bound to [node_name] — the
   §3.6.1 pool discipline, enforced against genuinely concurrent
   fibers.

   Affinity is keyed (node, shard-group): inside a transaction, the same
   shard group on the same node always reuses the same connection, so
   uncommitted writes and locks stay visible to later statements. A read
   may additionally reuse a group connection on {e another} replica
   ([exact] = false): after a failover, the replica holding the
   transaction's uncommitted writes is the one that must serve it.

   A connection already running another fiber's fragment is busy; the
   fiber waits for a release instead of interleaving two statements on
   one connection. New connections open at
   [started_at + k * slow_start_interval] on the virtual clock (slow
   start, §3.6.1): the k-th ramp slot sleeps until its gate before the
   checkout, so the ramp is a real timeline, not a reconstruction. *)
let rec acquire ?sched c ~in_txn ~exact ~node_name task_group =
  let t = c.t and st = c.st in
  let pool = pool_for c node_name in
  let affinity_exact =
    match st.State.affinity with
    | _ :: _ as affinity when task_group >= 0 ->
      List.assoc_opt (node_name, task_group) affinity
    | _ -> None
  in
  let affinity_any_replica =
    if in_txn && (not exact) && task_group >= 0 then
      List.find_map
        (fun ((_, g), c) -> if g = task_group then Some c else None)
        st.State.affinity
    else None
  in
  match affinity_exact, affinity_any_replica with
  | Some conn, _ | None, Some conn ->
    if List.memq conn pool.sp_busy then begin
      (* pinned to a connection another fiber holds: wait for it *)
      wait ?sched pool;
      acquire ?sched c ~in_txn ~exact ~node_name task_group
    end
    else begin
      Obs.Metrics.inc c.m Obs.Metric_names.exec_conn_affinity_reuse;
      take pool conn
    end
  | None, None -> (
    let existing = State.pool_of st node_name in
    let free =
      match pool.sp_busy with
      | [] -> existing
      | busy -> List.filter (fun c -> not (List.memq c busy)) existing
    in
    match free with
    | conn :: _ -> take pool conn
    | [] ->
      let within_limits =
        List.length existing < t.State.config.State.pool_size_per_node
        && State.shared_count t node_name
           < t.State.config.State.shared_connection_limit
      in
      if within_limits then begin
        (* the k-th new connection may open at its ramp gate; until
           then, race the gate against a connection freed by another
           fiber — whichever comes first. The slot count only grows
           when a connection actually opens, so a statement drained
           by its existing connections never ramps further. *)
        let gate =
          c.started_at
          +. (float_of_int pool.sp_ramp *. t.State.config.State.slow_start_interval)
        in
        if Sim.Clock.now c.clock >= gate then begin
          pool.sp_ramp <- pool.sp_ramp + 1;
          match open_new c pool ~forced:false with
          | Some conn -> conn
          | None ->
            (* raced to a limit since the check above *)
            wait ?sched pool;
            acquire ?sched c ~in_txn ~exact ~node_name task_group
        end
        else begin
          (match sched with
           | Some sched -> Sim.Sched.timed_wait sched pool.sp_cond ~until:gate
           | None -> Cluster.Topology.wait_until t.State.cluster ~until_:gate);
          acquire ?sched c ~in_txn ~exact ~node_name task_group
        end
      end
      else if existing = [] then begin
        (* a statement cannot do without at least one connection;
           a forced checkout always opens one *)
        match open_new c pool ~forced:true with
        | Some conn -> conn
        | None -> assert false
      end
      else begin
        (* at the limit and every connection busy: wait for one *)
        wait ?sched pool;
        acquire ?sched c ~in_txn ~exact ~node_name task_group
      end)

let release ?sched c ~node_name conn =
  let pool = pool_for c node_name in
  pool.sp_busy <- List.filter (fun c -> not (c == conn)) pool.sp_busy;
  match sched with
  | Some sched -> Sim.Sched.broadcast sched pool.sp_cond
  | None -> ()

(* A fiber sleep, or for a lone task (no scheduler) the cluster driver's
   wait: a clock advance firing the fault tick — never a yield to an
   ambient scheduler: a delegated CALL is inside a round trip. *)
let sleep_until ?sched c wake =
  match sched with
  | Some sched -> Sim.Sched.sleep_until sched wake
  | None -> Cluster.Topology.wait_until c.t.State.cluster ~until_:wake

let sleep ?sched c d =
  if d > 0.0 then sleep_until ?sched c (Sim.Clock.now c.clock +. d)

(* Deadline expiry: slow, not dead — wait out the deadline, feed the
   breaker's latency trip, cancel the statement PostgreSQL-style
   ([count] when no handler further out counts the timeout). *)
let expire ?sched c ~count ~node_name dl =
  sleep_until ?sched c dl;
  Health.record_slow c.t.State.health node_name;
  if count then Obs.Metrics.inc c.m Obs.Metric_names.exec_timeouts;
  raise (Cluster.Connection.Timed_out { node = node_name; deadline = dl })

(* One fragment on [node]: [dispatch] runs it, then the executing side
   is occupied for its modeled cost (a sleep, so spans and makespans
   are measured), or up to an overrun deadline. *)
let fragment ?sched c ~(node : Cluster.Topology.node) ~local (task : Plan.task)
    snapshot dispatch =
  let node_name = node.Cluster.Topology.node_name in
  let result, duration =
    Obs.Trace.with_span_parent c.trace ~parent:c.parent_span
      ~now:(Cluster.Topology.now c.t.State.cluster)
      ~node:node_name ~kind:"fragment"
      ~tags:
        (if not (Obs.Trace.enabled c.trace) then []
         else
           [ ("shard", string_of_int task.Plan.task_shard);
             ("group", string_of_int task.Plan.task_group) ]
           @ (if local then [ ("local", "true") ] else [])
           @ Option.fold snapshot ~none:[] ~some:(fun mode ->
                 [ ("snapshot",
                    Format.asprintf "%a" Txn.Snapshot.pp_read_mode mode) ]))
      (fun _sp ->
        let result, duration = measured node dispatch in
        (match c.deadline with
         | Some dl when Sim.Clock.now c.clock +. duration > dl ->
           expire ?sched c ~count:local ~node_name dl
         | _ -> sleep ?sched c duration);
        (result, duration))
  in
  Obs.Metrics.observe c.m Obs.Metric_names.exec_fragment_seconds duration;
  let pool = pool_for c node_name in
  pool.sp_fragments <- pool.sp_fragments + 1;
  pool.sp_serial <- pool.sp_serial +. duration;
  result

(* A read met prepared transaction [gid]: [resolve] it from the origin's
   commit records, or back off while its 2PC is in flight, up to the
   deadline; an origin that is down decides nothing until it returns, so
   fail the read. Returns the next backoff. *)
let in_doubt ?sched c ~node_name ~gid ~resolve backoff =
  Obs.Metrics.inc c.m Obs.Metric_names.snapshot_indoubt_waits;
  (match resolve () with
   | `Resolved -> ()
   | `Unreachable origin ->
     raise
       (State.Network_error
          (Printf.sprintf "in-doubt %s: its coordinator %s is unreachable"
             gid origin))
   | `Pending -> (
     match c.deadline with
     | Some dl when Sim.Clock.now c.clock +. backoff > dl ->
       expire ?sched c ~count:true ~node_name dl
     | _ -> sleep ?sched c backoff));
  Obs.Metrics.inc c.m Obs.Metric_names.snapshot_read_retries;
  Float.min (backoff *. 2.0) 0.016

(* Local execution: a task placed on this node runs in the session's own
   transaction — no connection, BEGIN or worker-side statement; a cached
   task runs the plan kept with its worker-side statement, its values
   checked against the shape's [$k] when it was planned
   ([Api.cached_plan]). The xid joins the deadlock graph as its own
   distributed transaction's member. An error is a statement error: no
   withdrawal, no breaker failure. *)
let run_local ?sched c (task : Plan.task) =
  let t = c.t and session = c.session in
  let local_name = t.State.local.Cluster.Topology.node_name in
  let snapshot =
    if is_write task.Plan.task_stmt then None else c.snapshot_mode
  in
  let exec () = Exec.local_exn ?snapshot ?bound:c.bound session task.Plan.task_stmt in
  Obs.Metrics.inc c.m Obs.Metric_names.exec_local_tasks;
  let rec attempt backoff =
    try
      fragment ?sched c ~node:t.State.local ~local:true task snapshot
        (fun () ->
          (* whatever the outcome: a lock wait must join the graph *)
          Fun.protect
            ~finally:(fun () ->
              Option.iter
                (register_member c.st t session ~node:local_name)
                (Engine.Instance.current_xid session))
            exec)
    with Txn.Manager.In_doubt { gid; xid = _ } ->
      attempt
        (in_doubt ?sched c ~node_name:local_name ~gid
           ~resolve:(fun () -> Twopc.resolve_in_doubt t ~gid ())
           backoff)
  in
  attempt 0.001

(* One attempt of [task] on [node_name]. On Network_error the connection
   is withdrawn from the coordinator transaction (its writes are lost;
   committing the survivors must not touch it) before re-raising. A read
   that lands in a 2PC in-doubt window ([Txn.Manager.In_doubt]) first
   tries to resolve the prepared transaction, then re-reads. *)
let run_on ?sched c (task : Plan.task) node_name =
  let t = c.t and st = c.st and deadline = c.deadline in
  let write = is_write task.Plan.task_stmt in
  let snapshot = if write then None else c.snapshot_mode in
  let needs_txn_block = c.explicit || write in
  let conn =
    acquire ?sched c ~in_txn:needs_txn_block ~exact:write ~node_name
      task.Plan.task_group
  in
  let node = Cluster.Connection.node conn in
  Fun.protect
    ~finally:(fun () -> release ?sched c ~node_name conn)
    (fun () ->
      (* Pool hygiene: a checkout whose last known backend status (the
         ReadyForQuery byte every client tracks) says "in a transaction
         block" — but which is not part of THIS session's transaction —
         is an orphan: a failed statement's fire-and-forget ROLLBACK
         never landed. Reset it before use, or a read fragment would run
         inside the orphan and see its uncommitted writes as its own
         ([my_xid]), tearing the snapshot. *)
      if
        Cluster.Connection.in_transaction conn
        && not (List.memq conn st.State.txn_conns)
      then begin
        Obs.Metrics.inc c.m Obs.Metric_names.exec_stale_txn_resets;
        try ignore (Exec.on_conn_exn ?deadline t conn "ROLLBACK")
        with _ ->
          Health.record_ignored t.State.health node.Cluster.Topology.node_name
      end;
      let rec attempt backoff =
        try
          if needs_txn_block && not (List.memq conn st.State.txn_conns) then begin
            (* Register before the round trip's outcome is known: a BEGIN
               whose reply is late (Timed_out) or lost (Drop_reply) still
               executed on the worker, and an unregistered connection
               sitting in a transaction block would go back to the pool
               dirty — failing every later statement on it with "already
               in a transaction block". Registration guarantees the
               session's COMMIT/ROLLBACK fan-out (or the Network_error
               withdrawal below) sweeps it whatever the BEGIN's fate;
               registration is a no-op if the BEGIN never ran. *)
            st.State.txn_conns <- conn :: st.State.txn_conns;
            Fun.protect
              ~finally:(fun () ->
                Option.iter
                  (register_member st t c.session ~node:node_name)
                  (Cluster.Connection.backend_xid conn))
              (fun () -> ignore (Exec.on_conn_exn ?deadline t conn "BEGIN"))
          end;
          let result =
            fragment ?sched c ~node ~local:false task snapshot (fun () ->
                match c.bound with
                | Some b -> Exec.bound_on_conn_exn ?deadline ?snapshot t conn b
                | None ->
                  Exec.ast_on_conn_exn ?deadline ?snapshot t conn
                    task.Plan.task_stmt)
          in
          if needs_txn_block && task.Plan.task_group >= 0 then begin
            let key = (node.Cluster.Topology.node_name, task.Plan.task_group) in
            if not (List.mem_assoc key st.State.affinity) then
              st.State.affinity <- (key, conn) :: st.State.affinity
          end;
          result
        with
        | (State.Network_error _ | Cluster.Connection.Node_unavailable _) as e
          ->
          if List.memq conn st.State.txn_conns then
            withdraw_txn_conn t st conn ~node:node.Cluster.Topology.node_name;
          raise e
        | Cluster.Connection.Timed_out _ as e ->
          (* deadline expiry is a statement abort, not a connection
             failure: the connection stays healthy (its reply merely
             arrives late) and goes back to the pool via [release] *)
          Obs.Metrics.inc c.m Obs.Metric_names.exec_timeouts;
          raise e
        | Txn.Manager.In_doubt { gid; xid = _ } ->
          attempt
            (in_doubt ?sched c ~node_name:node.Cluster.Topology.node_name ~gid
               ~resolve:(fun () -> Twopc.resolve_in_doubt t ~conn ~gid ())
               backoff)
      in
      attempt 0.001)

let run_any ?sched c task node_name =
  if State.runs_locally c.t c.session node_name then run_local ?sched c task
  else run_on ?sched c task node_name

(* served here: a write placed only here, or a read whose preferred
   replica is here — no network to fail over from or hedge against *)
let served_locally c (task : Plan.task) = function
  | node_name :: rest ->
    State.runs_locally c.t c.session node_name
    && (rest = [] || not (is_write task.Plan.task_stmt))
  | [] -> false

(* what a task's candidates make it do in [exec_task]: only a read
   outside a transaction block, not served here, with a second replica
   to race hedges *)
let hedges c (task : Plan.task) candidates =
  c.t.State.config.State.hedge_threshold > 0.0
  && (not c.explicit)
  && (not (is_write task.Plan.task_stmt))
  && (match candidates with _ :: _ :: _ -> true | _ -> false)
  && not (served_locally c task candidates)

let exec_task ?sched c candidates (task : Plan.task) =
  let t = c.t in
  if served_locally c task candidates then run_local ?sched c task
  else if is_write task.Plan.task_stmt && List.length candidates > 1 then begin
    (* statement-based replication (§3.3): the write runs on every
       active replica; replicas that fail are marked Inactive as long as
       at least one replica took the write *)
    let successes = ref [] and failed = ref [] and last_err = ref None in
    List.iter
      (fun node_name ->
        match run_any ?sched c task node_name with
        | r -> successes := r :: !successes
        | exception
            ((State.Network_error _ | Cluster.Connection.Node_unavailable _)
             as e) ->
          failed := node_name :: !failed;
          last_err := Some e)
      candidates;
    match List.rev !successes, !last_err with
    | [], Some e -> raise e
    | [], None -> assert false (* no success implies a recorded error *)
    | r :: _, _ ->
      List.iter
        (fun node -> mark_placement_lost t ~shard_id:task.Plan.task_shard ~node)
        !failed;
      r
  end
  else if (not (is_write task.Plan.task_stmt)) && not c.explicit then begin
    (* read failover: outside an explicit transaction a lost replica is
       transparent — try the next one; the last candidate gets bounded
       retries with clock backoff *)
    let rec try_nodes = function
      | [] -> assert false
      | [ node_name ] ->
        State.with_retry t ~node:node_name (fun () ->
            run_any ?sched c task node_name)
      | node_name :: rest ->
        (match run_any ?sched c task node_name with
         | r -> r
         | exception
             (State.Network_error _ | Cluster.Connection.Node_unavailable _)
           ->
           try_nodes rest)
    in
    let hedge_threshold = t.State.config.State.hedge_threshold in
    match candidates, sched with
    | primary :: (secondary :: _ as rest), Some sched
      when hedge_threshold > 0.0 ->
      (* hedged read: give the preferred replica [hedge_threshold] of
         exclusive virtual time; if it has neither answered nor failed
         by then it is slow, not dead — launch the same read on the next
         replica and let the first response win. Only reads hedge:
         duplicating one has no side effects. The loser is cancelled and
         drained, so its connection is back in the pool before the
         statement returns. *)
      let attempt node_name =
        Sim.Sched.spawn sched ~node:node_name (fun () ->
            run_any ~sched c task node_name)
      in
      let f1 = attempt primary in
      let hedge_at =
        let h = Sim.Clock.now c.clock +. hedge_threshold in
        match c.deadline with Some dl -> Float.min h dl | None -> h
      in
      (match Sim.Sched.await_result sched ~deadline:hedge_at f1 with
       | Ok r -> r
       | Error Sim.Sched.Timed_out ->
         Obs.Metrics.inc c.m Obs.Metric_names.exec_hedged_reads;
         if c.multi_fragment then
           Obs.Metrics.inc c.m Obs.Metric_names.snapshot_hedged_fragments;
         Health.record_slow t.State.health primary;
         let f2 = attempt secondary in
         let idx, first = Sim.Sched.await_any sched [ f1; f2 ] in
         let other = if idx = 0 then f2 else f1 in
         let hedge_won () =
           Obs.Metrics.inc c.m Obs.Metric_names.exec_hedge_wins;
           if c.multi_fragment then
             Obs.Metrics.inc c.m Obs.Metric_names.snapshot_fragment_hedge_wins
         in
         (match first with
          | Ok r ->
            (* first response wins; cancelling and draining the loser
               runs its cleanup (connection release) to completion inside
               this statement *)
            Sim.Sched.cancel sched other;
            (* bounded: the loser was just cancelled, so it completes at
               its next suspension point; a ?deadline here would abandon
               it mid-cleanup instead *)
            ignore (Sim.Sched.await_result sched other [@lint.unbounded]);
            if idx = 1 then hedge_won ();
            r
          | Error _ ->
            (* the first finisher failed; fall back to whatever the
               surviving attempt produces — bounded: every round trip
               inside the attempt already carries the statement deadline
               threaded through run_on *)
            (match Sim.Sched.await_result sched other [@lint.unbounded] with
             | Ok r ->
               if idx = 0 then hedge_won ();
               r
             | Error e -> raise e))
       | Error (State.Network_error _ | Cluster.Connection.Node_unavailable _)
         ->
         (* hard failure before the hedge fired: ordinary failover *)
         try_nodes rest
       | Error e -> raise e)
    | _ -> try_nodes candidates
  end
  else
    (* replica_nodes never returns []: it falls back to the planned node *)
    match candidates with
    | [] -> assert false
    | node_name :: _ ->
      if not c.explicit then
        (* single-placement write: bounded retries, no failover target *)
        State.with_retry t ~node:node_name (fun () ->
            run_any ?sched c task node_name)
      else
        (* inside an explicit transaction: one attempt on the planned
           node; failing over mid-transaction would lose uncommitted
           state *)
        run_any ?sched c task node_name

(* Tasks that pin the same transaction-affine (node, shard-group) key
   must not race to establish the affinity connection: chain them into
   one fiber, in plan order. Everything else gets its own fiber. Each
   fiber is (its node, its tasks with their plan positions). *)
let units c tasks =
  let chains = ref [] and units = ref [] in
  List.iteri
    (fun i (task : Plan.task) ->
      let node = task.Plan.task_node in
      if (c.explicit || is_write task.Plan.task_stmt) && task.Plan.task_group >= 0
      then begin
        let key = (node, task.Plan.task_group) in
        match List.assoc_opt key !chains with
        | Some r -> r := (i, task) :: !r
        | None ->
          let r = ref [ (i, task) ] in
          chains := (key, r) :: !chains;
          units := (node, r) :: !units
      end
      else units := (node, ref [ (i, task) ]) :: !units)
    tasks;
  List.rev_map (fun (node, r) -> (node, List.rev !r)) !units

let execute ?bound (t : State.t) session (tasks : Plan.task list) =
  let cluster = t.State.cluster in
  let round_trips_before = cluster.Cluster.Topology.net.Cluster.Topology.round_trips in
  let clock = cluster.Cluster.Topology.clock in
  let started_at = Sim.Clock.now clock in
  let trace = Cluster.Topology.trace cluster in
  let c =
    {
      t;
      session;
      st = State.session_state t session;
      bound;
      explicit = Engine.Instance.in_transaction session;
      m = Cluster.Topology.metrics cluster;
      trace;
      clock;
      started_at;
      deadline =
        (let timeout = t.State.config.State.statement_timeout in
         if timeout > 0.0 then Some (started_at +. timeout) else None);
      (* Distributed read consistency (citus.consistency): one snapshot
         token per statement, computed before any fragment runs and
         carried by every read dispatch — so a scatter-gather read
         observes one cluster-wide cut instead of each fragment taking
         its own. Writes always run at [Latest]; their visibility is
         governed by 2PC commit timestamps, not by the reader's mode. *)
      snapshot_mode =
        (match t.State.config.State.consistency with
         | State.Eventual -> None
         | State.Read_your_writes -> Some Txn.Snapshot.Resolving
         | State.Snapshot ->
           Some
             (Txn.Snapshot.At
                (Txn.Hlc.now
                   (Cluster.Topology.hlc cluster t.State.local.Cluster.Topology.node_name))));
      multi_fragment = (match tasks with _ :: _ :: _ -> true | _ -> false);
      parent_span = Obs.Trace.current trace;
      pools = [];
    }
  in
  (match c.snapshot_mode with
   | Some _
     when List.exists
            (fun (task : Plan.task) -> not (is_write task.Plan.task_stmt))
            tasks ->
     Obs.Metrics.inc c.m Obs.Metric_names.snapshot_reads
   | _ -> ());
  let lone =
    match tasks with
    | [ task ] ->
      let candidates = replica_nodes t task in
      if hedges c task candidates then None else Some (task, candidates)
    | _ -> None
  in
  let results =
    match lone, tasks with
    | Some (task, candidates), _ ->
      (* a lone task that cannot hedge has nothing to interleave: it runs
         on the caller's stack, with no scheduler, fiber or handler; its
         waits draw the suspension hazard and advance the clock *)
      [ Cluster.Topology.with_driver cluster
          (Cluster.Topology.Lone task.Plan.task_node) (fun () ->
            exec_task c candidates task) ]
    | None, [] -> []
    | None, _ ->
      State.with_sched t (fun sched ->
          units c tasks
          |> List.map (fun (node, unit_tasks) ->
                 Sim.Sched.spawn sched ~node (fun () ->
                     List.map
                       (fun (i, task) -> (i, exec_task ~sched c (replica_nodes t task) task))
                       unit_tasks))
          |> Sim.Sched.join_all sched)
      |> List.concat
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
  in
  let pools =
    List.sort (fun a b -> String.compare (pool_name a) (pool_name b)) c.pools
  in
  let per_node f =
    List.filter_map (fun p -> Option.map (fun x -> (pool_name p, x)) (f p)) pools
  in
  let node_serial =
    per_node (fun p -> if p.sp_fragments = 0 then None else Some p.sp_serial)
  in
  let report =
    {
      makespan = Sim.Clock.now clock -. started_at;
      connections_used =
        per_node (fun p ->
            match p.sp_used with [] -> None | l -> Some (List.length l));
      conn_opened_at =
        per_node (fun p ->
            match p.sp_opened_at with [] -> None | l -> Some (List.rev l));
      round_trips =
        cluster.Cluster.Topology.net.Cluster.Topology.round_trips - round_trips_before;
      serial_time = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 node_serial;
      node_serial;
    }
  in
  Obs.Metrics.inc c.m ~by:(List.length tasks) Obs.Metric_names.exec_tasks;
  Obs.Metrics.observe c.m Obs.Metric_names.exec_makespan_seconds report.makespan;
  List.iter
    (fun (_, n) ->
      Obs.Metrics.observe c.m Obs.Metric_names.exec_connections_per_statement
        (float_of_int n))
    report.connections_used;
  (results, report)
