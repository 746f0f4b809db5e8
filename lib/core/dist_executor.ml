let infer_column_types ncols (rows : Datum.t array list) =
  Array.init ncols (fun i ->
      let rec first_type = function
        | [] -> Datum.TText
        | (row : Datum.t array) :: rest ->
          (match Datum.type_of row.(i) with
           | Some ty -> ty
           | None -> first_type rest)
      in
      first_type rows)

(* Materialize collected rows and run the master query over them. *)
let run_merge (t : State.t) coord_session (merge : Plan.merge)
    (rows : Datum.t array list) : Engine.Instance.result =
  let inst = t.State.local.Cluster.Topology.instance in
  let catalog = Engine.Instance.catalog inst in
  let seq = t.State.next_intermediate_seq in
  t.State.next_intermediate_seq <- seq + 1;
  let rel = Printf.sprintf "citus_intermediate_%d" seq in
  let ncols = List.length merge.Plan.intermediate_columns in
  let tys = infer_column_types ncols rows in
  let columns =
    List.mapi
      (fun i name ->
        {
          Sqlfront.Ast.col_name = name;
          col_ty = tys.(i);
          col_default = None;
          col_not_null = false;
        })
      merge.Plan.intermediate_columns
  in
  let table =
    Engine.Catalog.add_table catalog ~name:rel ~columns ~primary_key:[]
      ~columnar:false
  in
  let ctx0 = Engine.Instance.make_ctx coord_session in
  (* direct callers may be outside a transaction: give the merge step an
     internal one so the transient rows have an owner *)
  let mgr = Engine.Instance.txn_manager inst in
  let own_xid, finish =
    match ctx0.Engine.Executor.xid with
    | Some _ -> (ctx0.Engine.Executor.xid, fun ok -> ignore ok)
    | None ->
      let x = Txn.Manager.begin_txn mgr in
      ( Some x,
        fun ok ->
          if ok then Txn.Manager.commit mgr x else Txn.Manager.abort mgr x )
  in
  (* the merge runs under a scratch meter: its cost is charged explicitly
     as merge_rows so the simulation can treat it as a serial phase *)
  let scratch = Engine.Meter.create () in
  let ctx =
    { ctx0 with Engine.Executor.xid = own_xid; meter = scratch }
  in
  Engine.Meter.add_merge_rows (Engine.Instance.meter inst) (List.length rows);
  Fun.protect
    ~finally:(fun () -> Engine.Catalog.drop_table catalog rel)
    (fun () ->
      (* materialize like a tuplestore: plain heap appends, no WAL, no
         indexes — collected rows are transient (one unit of CPU each) *)
      (try
         let heap =
           match table.Engine.Catalog.store with
           | Engine.Catalog.Heap_store h -> h
           | Engine.Catalog.Columnar_store _ -> assert false
         in
         let xid = Option.get ctx.Engine.Executor.xid in
         List.iter
           (fun row -> ignore (Storage.Heap.insert heap ~xid row))
           rows
       with e ->
         finish false;
         raise e);
      let master =
        Sqlfront.Ast.rename_tables_select
          (fun name ->
            if String.equal name Planner.intermediate_relation then rel
            else name)
          merge.Plan.master
      in
      let columns, out_rows =
        try Engine.Executor.run_select ctx master
        with e ->
          finish false;
          raise e
      in
      finish true;
      {
        Engine.Instance.columns;
        rows = out_rows;
        affected = List.length out_rows;
        tag = "SELECT";
      })

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
      Planner.plan t.State.metadata
        ~catalog:(Engine.Instance.catalog local.Cluster.Topology.instance)
        ~local_name:local.Cluster.Topology.node_name stmt
    in
    (fst (execute t session plan)).Engine.Instance.affected
