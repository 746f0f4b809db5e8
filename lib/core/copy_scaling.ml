let err fmt =
  Printf.ksprintf (fun m -> raise (Engine.Instance.Session_error m)) fmt

(* Per-node batch dispatch through the session's pools, inside the
   transaction if one is open (so COPY participates in 2PC). *)
let connection_to (t : State.t) st session node_name =
  let conn = State.pooled_connection t st node_name in
  if Engine.Instance.in_transaction session
     && not (List.memq conn st.State.txn_conns)
  then begin
    ignore (Exec.on_conn_exn t conn "BEGIN");
    st.State.txn_conns <- conn :: st.State.txn_conns
  end;
  conn

(* Ship one batch to every active replica of [shard]. A replica that fails
   is marked Inactive — together with its colocated siblings — as long as
   at least one replica took the batch; with no survivors the COPY fails. *)
let copy_replicated (t : State.t) st session ~(shard : Metadata.shard)
    ~shard_table ~columns lines =
  let nodes = Metadata.placements t.State.metadata shard.Metadata.shard_id in
  let copied = ref None and failed = ref [] in
  let ship node =
    if not (State.reachable t node) then
      raise (State.Network_error (node ^ " is unreachable"));
    let conn = connection_to t st session node in
    if Engine.Instance.in_transaction session then begin
      (* later statements in this transaction must find the
         uncommitted rows: record shard-group affinity (§3.6.1) *)
      let key = (node, shard.Metadata.index_in_colocation) in
      if not (List.mem_assoc key st.State.affinity) then
        st.State.affinity <- (key, conn) :: st.State.affinity
    end;
    let n = Cluster.Connection.copy conn ~table:shard_table ~columns lines in
    Health.record_success t.State.health node;
    n
  in
  List.iter
    (fun node ->
      try
        let n =
          if State.runs_locally t session node then
            (* local execution: into the session's own transaction *)
            Engine.Instance.copy_local session ~table:shard_table ~columns lines
          else ship node
        in
        if !copied = None then copied := Some n
      with State.Network_error _ | Cluster.Connection.Node_unavailable _ ->
        Health.record_failure t.State.health node;
        failed := node :: !failed)
    nodes;
  match !copied with
  | None ->
    raise
      (State.Network_error
         (Printf.sprintf "no replica of shard %d reachable during COPY"
            shard.Metadata.shard_id))
  | Some n ->
    List.iter
      (fun node ->
        Adaptive_executor.mark_placement_lost t
          ~shard_id:shard.Metadata.shard_id ~node)
      !failed;
    n

let copy_hook (t : State.t) session ~table ~columns lines =
  match Metadata.find t.State.metadata table with
  | None -> None
  | Some dt ->
    let st = State.session_state t session in
    let local = t.State.local.Cluster.Topology.instance in
    let catalog = Engine.Instance.catalog local in
    let tbl =
      match Engine.Catalog.find_table_opt catalog table with
      | Some tbl -> tbl
      | None -> err "relation %s does not exist" table
    in
    (* coordinator-side parse cost: this is the serial part *)
    Engine.Meter.add_copy_rows (Engine.Instance.meter local)
      (List.length lines);
    (match dt.Metadata.kind with
     | Metadata.Reference ->
       let shard =
         match Metadata.shards_of t.State.metadata table with
         | s :: _ -> s
         | [] -> err "reference table %s has no shard" table
       in
       let shard_table = Metadata.shard_name shard in
       let n =
         copy_replicated t st session ~shard ~shard_table ~columns lines
       in
       Some n
     | Metadata.Distributed ->
       let dist_col =
         match dt.Metadata.dist_column with
         | Some c -> c
         | None -> err "relation %s has no distribution column" table
       in
       let col_list =
         match columns with
         | Some cols -> cols
         | None ->
           List.map
             (fun (c : Sqlfront.Ast.column_def) -> c.col_name)
             tbl.Engine.Catalog.columns
       in
       let dist_pos =
         match List.find_index (String.equal dist_col) col_list with
         | Some i -> i
         | None -> err "COPY into %s must include the distribution column" table
       in
       let dist_ty =
         (Engine.Catalog.column_tys tbl).(Engine.Catalog.column_index tbl dist_col)
       in
       (* route each line to its shard *)
       let batches : (int, string list ref) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun line ->
           let fields = String.split_on_char '\t' line in
           let field =
             match List.nth_opt fields dist_pos with
             | Some f -> f
             | None -> err "COPY row is missing the distribution column"
           in
           let v =
             try Datum.of_csv_field dist_ty field
             with Datum.Cast_error m -> err "COPY: %s" m
           in
           if Datum.is_null v then
             err "the distribution column cannot be NULL";
           let shard = Metadata.shard_for_value t.State.metadata ~table v in
           let batch =
             match Hashtbl.find_opt batches shard.Metadata.shard_id with
             | Some b -> b
             | None ->
               let b = ref [] in
               Hashtbl.replace batches shard.Metadata.shard_id b;
               b
           in
           batch := line :: !batch)
         lines;
       let total = ref 0 in
       Hashtbl.iter
         (fun shard_id batch ->
           let shard =
             match Metadata.shard_by_id t.State.metadata shard_id with
             | Some s -> s
             | None -> err "COPY: shard %d vanished mid-batch" shard_id
           in
           total :=
             !total
             + copy_replicated t st session ~shard
                 ~shard_table:(Metadata.shard_name shard)
                 ~columns (List.rev !batch))
         batches;
       Some !total)
