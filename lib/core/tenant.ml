let err fmt =
  Printf.ksprintf (fun m -> raise (Engine.Instance.Session_error m)) fmt

(* hash ranges around the tenant: [min, h-1], [h, h], [h+1, max], with
   empty subranges dropped *)
let split_ranges ~min_hash ~max_hash h =
  let before =
    if Int32.compare min_hash h < 0 then [ (min_hash, Int32.pred h) ] else []
  in
  let after =
    if Int32.compare h max_hash < 0 then [ (Int32.succ h, max_hash) ] else []
  in
  before @ [ (h, h) ] @ after

(* The split's writes run as one distributed transaction of an internal
   session on this node, committed through the usual 2PC hooks. *)
let in_txn (t : State.t) f =
  let session =
    Engine.Instance.connect t.State.local.Cluster.Topology.instance
  in
  ignore (Engine.Instance.exec_ast session Sqlfront.Ast.Begin_txn);
  match f session with
  | () -> ignore (Engine.Instance.exec_ast session Sqlfront.Ast.Commit_txn)
  | exception e ->
    ignore (Engine.Instance.exec_ast session Sqlfront.Ast.Rollback_txn);
    raise e

let isolate_tenant (t : State.t) ~table ~value =
  let meta = t.State.metadata in
  let dt =
    match Metadata.find meta table with
    | Some ({ Metadata.kind = Metadata.Distributed; _ } as dt) -> dt
    | Some _ -> err "%s is a reference table; tenants live in distributed tables" table
    | None -> err "%s is not a distributed table" table
  in
  let h = Metadata.hash_of_value meta ~table value in
  let anchor = Metadata.shard_for_value meta ~table value in
  if Int32.equal anchor.Metadata.min_hash h && Int32.equal anchor.Metadata.max_hash h
  then
    (* already isolated *)
    [ anchor.Metadata.shard_id ]
  else begin
    let group_index = anchor.Metadata.index_in_colocation in
    let group_tables =
      List.filter
        (fun (d : Metadata.dist_table) ->
          d.Metadata.kind = Metadata.Distributed
          && d.Metadata.colocation_id = dt.Metadata.colocation_id)
        (Metadata.all_tables meta)
      (* the requested table first, so the returned ids line up *)
      |> List.sort (fun (a : Metadata.dist_table) b ->
             compare
               (not (String.equal a.Metadata.dt_name table))
               (not (String.equal b.Metadata.dt_name table)))
    in
    let conn_to node =
      Cluster.Connection.open_
        ~origin:t.State.local.Cluster.Topology.node_name t.State.cluster
        (Cluster.Topology.find_node t.State.cluster node)
    in
    (* 1. split every table's shard of the group in the catalog, keeping
       the old shard's rows, read from an active placement, and every
       node that held a copy of it *)
    let splits =
      List.map
        (fun (gt : Metadata.dist_table) ->
          let old_shard =
            List.find
              (fun (s : Metadata.shard) ->
                s.Metadata.index_in_colocation = group_index)
              (Metadata.shards_of meta gt.Metadata.dt_name)
          in
          let old_id = old_shard.Metadata.shard_id in
          let old_nodes =
            List.map
              (fun (p : Metadata.placement) -> p.Metadata.pl_node)
              (Metadata.all_placements meta old_id)
          in
          let src_node = Metadata.placement meta old_id in
          (* [@lint.sql_static]: the only interpolant is Metadata.shard_name,
             an internally generated "<table>_<id>" identifier — never
             client input *)
          let rows =
            (Exec.raw_on_conn_exn (conn_to src_node)
               (Printf.sprintf "SELECT * FROM %s"
                  (Metadata.shard_name old_shard)) [@lint.sql_static])
              .Engine.Instance.rows
          in
          let news =
            Metadata.replace_shard t.State.metadata ~shard_id:old_id
              ~ranges:
                (split_ranges ~min_hash:old_shard.Metadata.min_hash
                   ~max_hash:old_shard.Metadata.max_hash h)
          in
          ( gt,
            List.map (fun (s : Metadata.shard) -> s.Metadata.shard_id) news,
            old_shard,
            old_nodes,
            rows ))
        group_tables
    in
    Metadata.renumber_colocation t.State.metadata
      ~colocation_id:dt.Metadata.colocation_id;
    (* 2. create the new shards on every placement and route the rows
       back in through the logical table *)
    in_txn t (fun session ->
        List.iter
          (fun ((gt : Metadata.dist_table), new_ids, _, _, rows) ->
            let name = gt.Metadata.dt_name in
            Ddl.create_shards t session gt.Metadata.def
              (List.filter
                 (fun (s : Metadata.shard) ->
                   List.mem s.Metadata.shard_id new_ids)
                 (Metadata.shards_of meta name));
            ignore (Dist_executor.insert_rows t session ~table:name rows))
          splits);
    (* 3. the old shard is gone from the catalog: drop every copy of it *)
    List.iter
      (fun (_, _, old_shard, old_nodes, _) ->
        List.iter
          (fun node ->
            ignore
              (Cluster.Connection.exec_ast (conn_to node)
                 (Sqlfront.Ast.Drop_table
                    {
                      name = Metadata.shard_name old_shard;
                      if_exists = true;
                    })))
          old_nodes)
      splits;
    (* the single-value shard is each table's tenant shard *)
    List.map
      (fun ((gt : Metadata.dist_table), _, _, _, _) ->
        (Metadata.shard_for_value meta ~table:gt.Metadata.dt_name value)
          .Metadata.shard_id)
      splits
  end

let isolate_tenant_to_node (t : State.t) ~table ~value ~to_node =
  match isolate_tenant t ~table ~value with
  | [] -> err "nothing isolated"
  | shard_id :: _ -> Rebalancer.move_shard_group t ~shard_id ~to_node
