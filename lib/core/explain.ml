let task_line (t : Plan.task) =
  let tables =
    match t.Plan.task_stmt with
    | Sqlfront.Ast.Select_stmt s ->
      String.concat ", "
        (List.concat_map Sqlfront.Ast.from_tables s.Sqlfront.Ast.from)
    | Sqlfront.Ast.Insert { table; _ }
    | Sqlfront.Ast.Update { table; _ }
    | Sqlfront.Ast.Delete { table; _ } ->
      table
    | _ -> "?"
  in
  Printf.sprintf "  Task on %s (group %d): %s" t.Plan.task_node
    t.Plan.task_group tables

let explain (t : State.t) sql =
  let stmt = Sqlfront.Parser.parse_statement sql in
  let meta = t.State.metadata in
  if not (Planner.names_citus_table meta stmt) then
    "Local execution (no Citus tables)"
  else
    match
      Planner.plan meta ~local_name:t.State.local.Cluster.Topology.node_name stmt
    with
    | plan, tier ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "Distributed plan via %s planner\n"
           (Planner.tier_name tier));
      let tasks = Plan.tasks_of plan in
      Buffer.add_string buf
        (Printf.sprintf "Tasks: %d\n" (List.length tasks));
      List.iteri
        (fun i task ->
          if i < 4 then begin
            Buffer.add_string buf (task_line task);
            Buffer.add_char buf '\n'
          end)
        tasks;
      if List.length tasks > 4 then
        Buffer.add_string buf
          (Printf.sprintf "  ... and %d more tasks\n" (List.length tasks - 4));
      (match plan with
       | Plan.Multi_shard_select { merge; _ } ->
         Buffer.add_string buf
           (Printf.sprintf "Merge step on coordinator: %s\n"
              (Sqlfront.Deparse.select merge.Plan.master))
       | _ -> ());
      Buffer.contents buf
    | exception Planner.Unsupported m ->
      (match stmt with
       | Sqlfront.Ast.Select_stmt sel ->
         (* describe the join-order decision (estimates only) *)
         let session =
           Engine.Instance.connect t.State.local.Cluster.Topology.instance
         in
         (try
            let d = Join_order.decide t session sel in
            let moves =
              List.map
                (function
                  | Join_order.Broadcast { table; rows } ->
                    Printf.sprintf "  Broadcast %s (%d rows) to all anchor nodes"
                      table rows
                  | Join_order.Repartition { table; rows } ->
                    Printf.sprintf
                      "  Re-partition %s (%d rows) into %s's shard ranges" table
                      rows d.Join_order.anchor)
                d.Join_order.moves
            in
            String.concat "\n"
              (Printf.sprintf "Distributed plan via logical join-order planner"
               :: Printf.sprintf "Anchor relation: %s" d.Join_order.anchor
               :: moves
              @ [ Printf.sprintf "Estimated rows shipped: %d" d.Join_order.est_shipped; "" ])
          with Join_order.Unsupported m2 ->
            Printf.sprintf "Unsupported for distributed execution: %s" m2)
       | _ -> Printf.sprintf "Unsupported for distributed execution: %s" m)

(* EXPLAIN ANALYZE: actually run the query on a fresh session with
   tracing forced on, then render the span subtree it produced. The
   previous sink state is restored even if execution raises; the [mark]
   scopes the tree to exactly this query's spans, so the output is
   bit-identical across same-seed runs. *)
let explain_analyze (st : State.t) sql =
  let trace = Cluster.Topology.trace st.State.cluster in
  let was = Obs.Trace.enabled trace in
  Obs.Trace.set_enabled trace true;
  let mark = Obs.Trace.mark trace in
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled trace was)
    (fun () ->
      let session =
        Engine.Instance.connect st.State.local.Cluster.Topology.instance
      in
      ignore (Engine.Instance.exec session sql));
  match Obs.Trace.render_tree (Obs.Trace.spans_since trace mark) with
  | [] -> "no spans recorded"
  | lines -> String.concat "\n" lines
