type policy =
  | By_shard_count
  | By_size
  | Custom of (node:string -> shards:Metadata.shard list -> float)

type move = {
  moved_shards : int list;
  from_node : string;
  to_node : string;
  rows_copied : int;
  catchup_records : int;
}

exception Move_blocked of int list

let err fmt =
  Printf.ksprintf (fun m -> raise (Engine.Instance.Session_error m)) fmt

let find_shard_table (t : State.t) (shard : Metadata.shard) ~node =
  let name = Metadata.shard_name shard in
  match
    Engine.Catalog.find_table_opt
      (Engine.Instance.catalog
         (Cluster.Topology.find_node t.State.cluster node).instance)
      name
  with
  | Some tbl -> tbl
  | None -> err "shard %s missing on %s" name node

(* Copy one shard's data from [src] node to [dst] node following the
   logical-replication protocol: snapshot copy while writes continue, then
   WAL catch-up under a brief write lock. [finish_metadata] runs inside the
   cutover window (after the destination commit, before the lock release);
   [drop_source] removes the source copy — a move does, a repair keeps the
   source serving. Returns (rows copied, catchup records).

   Columnar appends write no WAL records to catch up from, so a columnar
   shard is copied whole under the write lock instead; it is never moved,
   only copied to a new replica (a repair, or a reference table on an
   added node).

   [?deadline] (absolute virtual time) bounds the destination round
   trips — the only points where a stalled destination can wedge the
   copy; everything after them is direct heap work that consumes no
   virtual time. Every await sits {e before} the first source mutation
   and before the metadata flip, so a deadline expiry abandons the copy
   cleanly: the partial destination table is dropped (fencing off any
   rows the stalled node did take) and {!Cluster.Connection.Timed_out}
   propagates to the caller with the source untouched. *)
let copy_shard_to (t : State.t) (shard : Metadata.shard) ~from_node ~to_node
    ~drop_source ?deadline ~finish_metadata () =
  let src_node = Cluster.Topology.find_node t.State.cluster from_node in
  let dst_node = Cluster.Topology.find_node t.State.cluster to_node in
  let src_inst = src_node.Cluster.Topology.instance in
  let dst_inst = dst_node.Cluster.Topology.instance in
  let shard_table = Metadata.shard_name shard in
  let src_catalog = Engine.Instance.catalog src_inst in
  let dst_catalog = Engine.Instance.catalog dst_inst in
  let src_tbl = find_shard_table t shard ~node:from_node in
  (match src_tbl.Engine.Catalog.store with
   | Engine.Catalog.Columnar_store _ when drop_source ->
     err "columnar shards cannot be rebalanced online"
   | _ -> ());
  (* create the target shard from the source shard's definition
     ({!Ddl.shard_schema}), so its indexes keep their names; a repair may
     find a stale copy from before the placement went inactive *)
  let dst_conn =
    Cluster.Connection.open_
      ~origin:t.State.local.Cluster.Topology.node_name t.State.cluster dst_node
  in
  let drop_dst () =
    if Option.is_some (Engine.Catalog.find_table_opt dst_catalog shard_table)
    then Engine.Catalog.drop_table dst_catalog shard_table
  in
  drop_dst ();
  let dst_ddl stmt =
    try
      (Cluster.Connection.(
         await ?deadline (exec_ast_async dst_conn stmt))
       [@lint.blocking])
    with Cluster.Connection.Timed_out _ as e ->
      (* the destination stalled past the move deadline: fence off the
         partial copy so nothing can ever read it, then abandon *)
      drop_dst ();
      raise e
  in
  List.iter (fun stmt -> ignore (dst_ddl stmt)) (Ddl.shard_schema src_tbl shard);
  let dst_tbl = Engine.Catalog.find_table dst_catalog shard_table in
  let src_mgr = Engine.Instance.txn_manager src_inst in
  let dst_mgr = Engine.Instance.txn_manager dst_inst in
  (* The copy writes the destination heap directly, below the executor, so
     it must WAL-log each mutation itself: crash recovery replays the
     destination WAL from scratch, and un-logged rows would vanish on
     restart (worse, their tids could be re-assigned to later, logged
     rows, corrupting the redo chain). Logging through the manager marks
     the apply transaction as having written, so its commit is logged
     too. The Truncate marker fences off any records a stale pre-repair
     copy left in the destination WAL. *)
  let log_dst record = Txn.Manager.log dst_mgr record in
  log_dst (Txn.Wal.Truncate shard_table);
  (* record the WAL position, then copy a snapshot while writes continue *)
  let lsn0 = Txn.Wal.current_lsn (Txn.Manager.wal src_mgr) in
  let snapshot = Txn.Manager.take_snapshot src_mgr in
  let dst_session = Engine.Instance.connect dst_inst in
  let dst_ctx0 = Engine.Instance.make_ctx dst_session in
  let apply_xid = Txn.Manager.begin_txn dst_mgr in
  let dst_ctx = { dst_ctx0 with Engine.Executor.xid = Some apply_xid } in
  let rows_shipped n =
    t.State.cluster.Cluster.Topology.net.Cluster.Topology.rows_shipped <-
      t.State.cluster.Cluster.Topology.net.Cluster.Topology.rows_shipped + n
  in
  (* block writes to the source shard: the brief cutover window *)
  let lock_source () =
    let lock_xid = Txn.Manager.begin_txn src_mgr in
    match
      Txn.Lock.acquire (Txn.Manager.locks src_mgr) ~owner:lock_xid
        (Txn.Lock.Table shard_table) Txn.Lock.Access_exclusive
    with
    | Txn.Lock.Granted -> lock_xid
    | Txn.Lock.Blocked holders ->
      Txn.Manager.abort src_mgr lock_xid;
      Txn.Manager.abort dst_mgr apply_xid;
      drop_dst ();
      raise (Move_blocked holders)
  in
  (* flip metadata, optionally drop the source, release the lock *)
  let cutover lock_xid =
    Txn.Manager.commit dst_mgr apply_xid;
    finish_metadata ();
    if drop_source then Engine.Catalog.drop_table src_catalog shard_table;
    Txn.Manager.commit src_mgr lock_xid
  in
  match src_tbl.Engine.Catalog.store, dst_tbl.Engine.Catalog.store with
  | Engine.Catalog.Columnar_store src_col, Engine.Catalog.Columnar_store dst_col
    ->
    let lock_xid = lock_source () in
    let rows = ref [] in
    Storage.Columnar.scan src_col
      ~status:(Txn.Manager.status src_mgr)
      ~snapshot:(Txn.Manager.take_snapshot src_mgr)
      ~my_xid:None
      ~columns:(List.init (List.length src_tbl.Engine.Catalog.columns) Fun.id)
      ~f:(fun row -> rows := row :: !rows);
    let n = List.length !rows in
    Txn.Manager.note_write dst_mgr apply_xid;
    Storage.Columnar.append dst_col ~xid:apply_xid (List.rev !rows);
    rows_shipped n;
    cutover lock_xid;
    (n, 0)
  | Engine.Catalog.Heap_store src_heap, Engine.Catalog.Heap_store dst_heap ->
    (* source tid -> destination tid of every row copied so far *)
    let tid_map : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let index_insert =
      Engine.Executor.index_inserter dst_ctx dst_tbl dst_tbl.Engine.Catalog.indexes
    in
    let copy_row src_tid row =
      let dst_tid = Storage.Heap.insert dst_heap ~xid:apply_xid row in
      log_dst
        (Txn.Wal.Insert
           { xid = apply_xid; table = shard_table; tid = dst_tid; row });
      index_insert dst_tid row;
      Hashtbl.replace tid_map src_tid dst_tid
    in
    let delete_row src_tid =
      match Hashtbl.find_opt tid_map src_tid with
      | Some dst_tid ->
        ignore (Storage.Heap.delete dst_heap ~xid:apply_xid ~tid:dst_tid);
        log_dst
          (Txn.Wal.Delete
             { xid = apply_xid; table = shard_table; tid = dst_tid });
        Hashtbl.remove tid_map src_tid;
        true
      | None -> false
    in
    let rows_copied = ref 0 in
    Storage.Heap.scan src_heap
      ~status:(Txn.Manager.status src_mgr)
      ~snapshot ~my_xid:None
      ~f:(fun src_tid row ->
        copy_row src_tid row;
        incr rows_copied);
    rows_shipped !rows_copied;
    let lock_xid = lock_source () in
    (* apply the WAL delta; every xid in it has finished by now *)
    let catchup = ref 0 in
    let committed xid =
      Txn.Manager.status src_mgr xid = Txn.Manager.Committed
    in
    List.iter
      (fun (_lsn, record) ->
        match record with
        | Txn.Wal.Insert { xid; table; tid; row }
          when String.equal table shard_table && committed xid
               && not (Hashtbl.mem tid_map tid) ->
          copy_row tid row;
          incr catchup
        | Txn.Wal.Update { xid; table; old_tid; new_tid; row }
          when String.equal table shard_table && committed xid ->
          ignore (delete_row old_tid);
          if not (Hashtbl.mem tid_map new_tid) then copy_row new_tid row;
          incr catchup
        | Txn.Wal.Delete { xid; table; tid }
          when String.equal table shard_table && committed xid ->
          if delete_row tid then incr catchup
        | _ -> ())
      (Txn.Wal.records ~from:(lsn0 + 1) (Txn.Manager.wal src_mgr));
    cutover lock_xid;
    (!rows_copied, !catchup)
  | _ -> assert false (* the destination was built from the source *)

(* Move = copy + metadata flip + source drop. *)
let move_one ?deadline (t : State.t) (shard : Metadata.shard) ~from_node
    ~to_node =
  copy_shard_to t shard ~from_node ~to_node ~drop_source:true ?deadline
    ~finish_metadata:(fun () ->
      Metadata.update_placement t.State.metadata
        ~shard_id:shard.Metadata.shard_id ~from_node ~to_node)
    ()

(* A move destination must not already hold a placement of any shard in
   the colocation group. copy_shard_to treats a pre-existing destination
   table as a stale repair artifact and drops it before copying — if
   that table were a live replica, a move aborted at the cutover lock
   (Move_blocked) would leave an Active placement with no backing table.
   The metadata flip would also file two placements under one node. Real
   Citus rejects such moves the same way. *)
let group_placeable (t : State.t) (shard : Metadata.shard) ~to_node =
  List.for_all
    (fun (s : Metadata.shard) ->
      Metadata.placement_state_of t.State.metadata
        ~shard_id:s.Metadata.shard_id ~node:to_node
      = None)
    (Metadata.colocated_shards t.State.metadata shard)

let move_shard_group ?sched (t : State.t) ~shard_id ~to_node =
  let meta = t.State.metadata in
  let shard =
    match
      List.find_opt
        (fun (s : Metadata.shard) -> s.Metadata.shard_id = shard_id)
        (List.concat_map
           (fun (dt : Metadata.dist_table) ->
             match dt.Metadata.kind with
             | Metadata.Distributed -> Metadata.shards_of meta dt.Metadata.dt_name
             | Metadata.Reference -> [])
           (Metadata.all_tables meta))
    with
    | Some s -> s
    | None -> err "no shard %d" shard_id
  in
  let from_node = Metadata.placement meta shard_id in
  if String.equal from_node to_node then
    { moved_shards = []; from_node; to_node; rows_copied = 0; catchup_records = 0 }
  else begin
    if not (group_placeable t shard ~to_node) then
      err "shard %d already has a placement on %s" shard_id to_node;
    let m = Cluster.Topology.metrics t.State.cluster in
    let trace = Cluster.Topology.trace t.State.cluster in
    Obs.Metrics.inc m Obs.Metric_names.rebalance_moves_started;
    (* the parent is read off the span stack here, not inside the span
       body: concurrent batched moves run as fibers and must not push on
       the shared stack, or interleaved moves would mis-parent *)
    Obs.Trace.with_span_parent trace
      ~parent:(Obs.Trace.current trace)
      ~now:(Cluster.Topology.now t.State.cluster)
      ~node:t.State.local.Cluster.Topology.node_name ~kind:"rebalance.move"
      ~tags:
        [
          ("shard", string_of_int shard_id);
          ("from", from_node);
          ("to", to_node);
        ]
    @@ fun sp ->
    let group = Metadata.colocated_shards meta shard in
    let rows = ref 0 and catchup = ref 0 in
    (* citus.move_timeout: one absolute deadline for the whole group
       move, bounding every destination round trip inside the copies.
       On expiry the in-flight shard copy has already fenced itself off
       (source untouched, partial destination dropped); siblings that
       had fully cut over are copied {e back} — the copy-back reads the
       moved heap directly and its round trips go to the original
       source node, which is not the one stalling — so an abandoned
       move never leaves a colocation group split across two nodes. *)
    let deadline =
      let mt = t.State.config.State.move_timeout in
      if mt > 0.0 then Some (Cluster.Topology.now t.State.cluster () +. mt)
      else None
    in
    (try
       List.iter
         (fun (s : Metadata.shard) ->
           let r, c = move_one ?deadline t s ~from_node ~to_node in
           rows := !rows + r;
           catchup := !catchup + c)
         group
     with Cluster.Connection.Timed_out _ as e ->
       Obs.Metrics.inc m Obs.Metric_names.rebalance_move_timeouts;
       Obs.Trace.add_tag sp "timed_out" "true";
       List.iter
         (fun (s : Metadata.shard) ->
           if
             Metadata.placement_state_of meta ~shard_id:s.Metadata.shard_id
               ~node:to_node
             = Some Metadata.Active
           then
             ignore (move_one t s ~from_node:to_node ~to_node:from_node))
         group;
       raise e);
    (* under the cooperative scheduler a move occupies virtual time
       proportional to the data it shipped, so batched moves genuinely
       overlap on the clock instead of completing instantaneously *)
    (match sched with
     | Some sched ->
       Sim.Sched.sleep sched
         (0.001 +. (1e-6 *. float_of_int (!rows + !catchup)))
     | None -> ());
    Obs.Metrics.inc m Obs.Metric_names.rebalance_moves_completed;
    Obs.Metrics.inc m ~by:!rows Obs.Metric_names.rebalance_rows_copied;
    Obs.Metrics.inc m ~by:!catchup Obs.Metric_names.rebalance_catchup_records;
    Obs.Trace.add_tag sp "rows_copied" (string_of_int !rows);
    {
      moved_shards = List.map (fun (s : Metadata.shard) -> s.Metadata.shard_id) group;
      from_node;
      to_node;
      rows_copied = !rows;
      catchup_records = !catchup;
    }
  end

(* --- self-healing shard repair --- *)

(* Re-copy the Inactive placement of [shard_id] on [node] from a healthy
   (active, reachable) replica, then mark it Active again. *)
let repair_placement (t : State.t) ~shard_id ~node =
  let meta = t.State.metadata in
  let shard =
    match Metadata.shard_by_id meta shard_id with
    | Some s -> s
    | None -> err "no shard %d" shard_id
  in
  let source =
    match
      List.find_opt (State.reachable t) (Metadata.placements meta shard_id)
    with
    | Some n -> n
    | None -> err "shard %d has no reachable active placement" shard_id
  in
  copy_shard_to t shard ~from_node:source ~to_node:node ~drop_source:false
    ~finish_metadata:(fun () ->
      Metadata.mark_placement t.State.metadata ~shard_id ~node Metadata.Active)
    ()

(* Maintenance pass: walk every Inactive placement and repair the ones on
   reachable nodes. Skips (rather than fails on) placements whose repair is
   blocked or whose replicas are all unreachable. Returns how many
   placements came back. *)
let repair_inactive (t : State.t) =
  let repaired = ref 0 in
  List.iter
    (fun ((shard : Metadata.shard), node) ->
      if State.reachable t node then
        match repair_placement t ~shard_id:shard.Metadata.shard_id ~node with
        | _ -> incr repaired
        | exception _ ->
          Obs.Metrics.inc
            (Cluster.Topology.metrics t.State.cluster)
            Obs.Metric_names.rebalance_repairs_failed)
    (Metadata.inactive_placements t.State.metadata);
  if !repaired > 0 then
    Obs.Metrics.inc
      (Cluster.Topology.metrics t.State.cluster)
      ~by:!repaired Obs.Metric_names.rebalance_placements_repaired;
  !repaired

let distribution (t : State.t) =
  let meta = t.State.metadata in
  let nodes = Metadata.nodes_in_use meta in
  List.map (fun n -> (n, List.length (Metadata.shards_on_node meta n))) nodes

let shard_rows (t : State.t) (s : Metadata.shard) node =
  let inst = (Cluster.Topology.find_node t.State.cluster node).instance in
  match
    Engine.Catalog.find_table_opt (Engine.Instance.catalog inst)
      (Metadata.shard_name s)
  with
  | Some { Engine.Catalog.store = Engine.Catalog.Heap_store h; _ } ->
    Storage.Heap.live_estimate h
  | _ -> 0

let node_cost (t : State.t) policy node =
  let shards = Metadata.shards_on_node t.State.metadata node in
  match policy with
  | By_shard_count -> float_of_int (List.length shards)
  | By_size ->
    float_of_int
      (List.fold_left (fun acc s -> acc + shard_rows t s node) 0 shards)
  | Custom f -> f ~node ~shards

let rebalance ?(policy = By_shard_count) (t : State.t) =
  (* nodes to balance over: all active data nodes (from metadata use +
     any node the caller activated) *)
  let nodes =
    List.sort_uniq String.compare
      (Metadata.nodes_in_use t.State.metadata
      @ List.map
          (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
          (Cluster.Topology.data_nodes t.State.cluster))
  in
  let moves = ref [] in
  let continue = ref true in
  let guard = ref 0 in
  (* [Custom] cost functions are opaque per-node aggregates: one group's
     contribution cannot be subtracted virtually, so batches degrade to
     size 1 (re-measure after every move, exactly the old behaviour) *)
  let batch_limit =
    match policy with
    | Custom _ -> 1
    | By_shard_count | By_size ->
      max 1 t.State.config.State.max_parallel_moves
  in
  let group_cost (head : Metadata.shard) ~on_node =
    let group = Metadata.colocated_shards t.State.metadata head in
    match policy with
    | By_shard_count -> float_of_int (List.length group)
    | By_size ->
      float_of_int
        (List.fold_left (fun acc s -> acc + shard_rows t s on_node) 0 group)
    | Custom _ -> 1.0
  in
  while !continue && !guard < 1000 do
    incr guard;
    (* Plan a batch of up to [max_parallel_moves] group moves against a
       virtually updated cost table — each planned move debits its group
       cost from the source and credits the destination — then execute
       the whole batch concurrently. Distinct groups touch distinct
       shard tables and metadata rows, so batched moves cannot conflict
       on the cutover locks. *)
    let costs = ref (List.map (fun n -> (n, node_cost t policy n)) nodes) in
    let batch = ref [] in
    let scheduled_shards = ref [] in
    let planning = ref true in
    while !planning && List.length !batch < batch_limit do
      let busiest, bc =
        List.fold_left
          (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
          ("", neg_infinity) !costs
      in
      let idlest, ic =
        List.fold_left
          (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
          ("", infinity) !costs
      in
      (* moving one shard group changes each side by roughly one group's
         cost; stop when the gap cannot be improved *)
      let candidates = Metadata.shards_on_node t.State.metadata busiest in
      (* only consider one shard per colocation group index *)
      let group_heads =
        List.sort_uniq
          (fun (a : Metadata.shard) b ->
            Int.compare a.Metadata.index_in_colocation
              b.Metadata.index_in_colocation)
          candidates
      in
      (* with replication > 1 the idlest node may already hold a replica
         of a candidate group; those groups cannot move there. Groups
         already scheduled in this batch stay where planning put them. *)
      let movable =
        List.filter
          (fun s ->
            group_placeable t s ~to_node:idlest
            && not
                 (List.exists
                    (fun (g : Metadata.shard) ->
                      List.mem g.Metadata.shard_id !scheduled_shards)
                    (Metadata.colocated_shards t.State.metadata s)))
          group_heads
      in
      match movable with
      | head :: _ when bc -. ic > 1.0 && not (String.equal busiest idlest) ->
        let gc = group_cost head ~on_node:busiest in
        batch := (head.Metadata.shard_id, idlest) :: !batch;
        scheduled_shards :=
          List.map
            (fun (s : Metadata.shard) -> s.Metadata.shard_id)
            (Metadata.colocated_shards t.State.metadata head)
          @ !scheduled_shards;
        costs :=
          List.map
            (fun (n, v) ->
              if String.equal n busiest then (n, v -. gc)
              else if String.equal n idlest then (n, v +. gc)
              else (n, v))
            !costs
      | _ -> planning := false
    done;
    match List.rev !batch with
    | [] -> continue := false
    | batch_moves ->
      let executed =
        State.with_sched t (fun sched ->
            let fibers =
              List.map
                (fun (shard_id, to_node) ->
                  Sim.Sched.spawn sched ~node:to_node (fun () ->
                      (* a move abandoned at its deadline rolled itself
                         back and counted the timeout; the rest of the
                         batch — and the next planning round — proceed *)
                      try Some (move_shard_group ~sched t ~shard_id ~to_node)
                      with Cluster.Connection.Timed_out _ -> None))
                batch_moves
            in
            Sim.Sched.join_all sched fibers)
      in
      let abandoned = List.for_all Option.is_none executed in
      List.iter
        (fun mv -> moves := mv :: !moves)
        (List.filter_map Fun.id executed);
      (* every planned move timed out: stop instead of re-planning the
         same doomed batch against an unchanged distribution forever *)
      if abandoned then continue := false
  done;
  List.rev !moves
