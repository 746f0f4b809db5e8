(* The merge step (Fig 5): the master query runs over the collected rows
   as over a tuplestore in backend memory, with no catalog entry and no
   buffer-pool page. It runs under a scratch meter: its cost is charged
   explicitly as merge_rows so the simulation can treat it as a serial
   phase. *)
let run_merge (t : State.t) coord_session (merge : Plan.merge)
    (rows : Datum.t array list) : Engine.Instance.result =
  let inst = t.State.local.Cluster.Topology.instance in
  Engine.Meter.add_merge_rows (Engine.Instance.meter inst) (List.length rows);
  let ctx =
    { (Engine.Instance.make_ctx coord_session) with
      Engine.Executor.meter = Engine.Meter.create () }
  in
  let columns, rows =
    Engine.Executor.run_select ctx merge.Plan.master
      ~relation:(Planner.intermediate_relation, merge.Plan.intermediate_columns, rows)
  in
  { Engine.Instance.columns; rows; affected = List.length rows; tag = "SELECT" }

(* Adaptive_executor.execute returns exactly one result per task, so a
   single-task plan always yields a singleton list. *)
let sole_result = function [ r ] -> r | _ -> assert false

let execute ?bound (t : State.t) coord_session (plan : Plan.t) =
  match plan with
  | Plan.Fast_path task | Plan.Router task ->
    let results, report =
      Adaptive_executor.execute ?bound t coord_session [ task ]
    in
    (sole_result results, report)
  | Plan.Multi_shard_select { tasks; merge } ->
    let results, report = Adaptive_executor.execute t coord_session tasks in
    let rows = List.concat_map (fun r -> r.Engine.Instance.rows) results in
    (run_merge t coord_session merge rows, report)
  | Plan.Multi_shard_dml { tasks } ->
    let results, report = Adaptive_executor.execute t coord_session tasks in
    let affected =
      List.fold_left (fun acc r -> acc + r.Engine.Instance.affected) 0 results
    in
    let tag =
      match results with r :: _ -> r.Engine.Instance.tag | [] -> "UPDATE"
    in
    ({ Engine.Instance.columns = []; rows = []; affected; tag }, report)
  | Plan.Reference_write task ->
    (* one task; the executor replicates it across the reference shard's
       active placements and reports the first replica's result *)
    let results, report =
      Adaptive_executor.execute t coord_session [ task ]
    in
    (sole_result results, report)

(* Rows a caller holds (a converted table's local rows, an INSERT..SELECT
   result, a split shard's contents) enter a Citus table as one
   [INSERT INTO <logical table> VALUES ...]: the planner routes every row
   to its shard and the executor replicates each shard's batch to its
   active placements. *)
let insert_rows (t : State.t) session ~table ?columns
    ?(on_conflict_do_nothing = false) (rows : Datum.t array list) =
  if rows = [] then 0
  else
    let stmt =
      Sqlfront.Ast.Insert
        {
          table;
          columns;
          source =
            Sqlfront.Ast.Values
              (List.map
                 (fun row ->
                   List.map (fun d -> Sqlfront.Ast.Const d) (Array.to_list row))
                 rows);
          on_conflict_do_nothing;
        }
    in
    let local = t.State.local in
    let plan, _tier =
      Planner.plan t.State.metadata ~local_name:local.Cluster.Topology.node_name
        stmt
    in
    (fst (execute t session plan)).Engine.Instance.affected
