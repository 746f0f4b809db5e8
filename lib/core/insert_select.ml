open Sqlfront

let err fmt =
  Printf.ksprintf (fun m -> raise (Engine.Instance.Session_error m)) fmt

let local_catalog (t : State.t) =
  Engine.Instance.catalog t.State.local.Cluster.Topology.instance

let column_list (t : State.t) table columns =
  match columns with
  | Some cols -> cols
  | None ->
    (match Engine.Catalog.find_table_opt (local_catalog t) table with
     | Some tbl ->
       List.map
         (fun (c : Ast.column_def) -> c.col_name)
         tbl.Engine.Catalog.columns
     | None -> err "relation %s does not exist" table)

(* Insert materialized rows through the planner's INSERT routing —
   shared by the re-partition and pull strategies and reference
   destinations. *)
let insert_rows (t : State.t) session ~table ~cols ~on_conflict_do_nothing
    rows =
  List.iter
    (fun (row : Datum.t array) ->
      if Array.length row <> List.length cols then
        err "INSERT..SELECT produced %d columns, expected %d"
          (Array.length row) (List.length cols))
    rows;
  Dist_executor.insert_rows t session ~table ~columns:cols
    ~on_conflict_do_nothing rows

(* Run the source SELECT through whatever distributed (or local) path
   applies and return its rows. *)
let materialize_select (t : State.t) session select =
  let meta = t.State.metadata in
  let catalog = local_catalog t in
  let stmt = Ast.Select_stmt select in
  if not (Planner.names_citus_table meta stmt) then begin
    let ctx = Engine.Instance.make_ctx session in
    snd (Engine.Executor.run_select ctx select)
  end
  else begin
    let plan, _tier =
      Planner.plan meta ~catalog
        ~local_name:t.State.local.Cluster.Topology.node_name stmt
    in
    let result, _report = Dist_executor.execute t session plan in
    result.Engine.Instance.rows
  end

let trivial_master (merge : Plan.merge) =
  let m = merge.Plan.master in
  m.Ast.group_by = [] && m.Ast.having = None && (not m.Ast.distinct)
  && m.Ast.limit = None && m.Ast.offset = None

let execute (t : State.t) session ~table ~columns ~select ~on_conflict_do_nothing
    =
  let meta = t.State.metadata in
  let catalog = local_catalog t in
  let cols = column_list t table columns in
  let dml_result affected =
    { Engine.Instance.columns = []; rows = []; affected; tag = "INSERT" }
  in
  let pull () =
    dml_result
      (insert_rows t session ~table ~cols ~on_conflict_do_nothing
         (materialize_select t session select))
  in
  match Metadata.find meta table with
  | None -> err "%s is not a Citus table" table
  | Some { Metadata.kind = Metadata.Reference; _ } -> pull ()
  | Some { Metadata.kind = Metadata.Distributed; dist_column = Some dc; _ } ->
    let dist_pos =
      match List.find_index (String.equal dc) cols with
      | Some i -> i
      | None ->
        err "INSERT into %s must include the distribution column %s" table dc
    in
    if
      Planner.select_is_colocated_with meta ~dest:table
        ~dest_dist_col_position:(Some dist_pos) select
    then begin
      (* strategy 1: fully parallel, shard-local INSERT..SELECT *)
      let source_tables =
        List.filter (Metadata.is_citus_table meta)
          (Planner.citus_tables meta (Ast.Select_stmt select))
      in
      let groups =
        Metadata.shard_groups meta ~tables:(table :: source_tables)
      in
      let dest_shards = Metadata.shards_of meta table in
      let tasks =
        List.map
          (fun (group_index, node, _) ->
            let dest_shard =
              List.find
                (fun (s : Metadata.shard) ->
                  s.index_in_colocation = group_index)
                dest_shards
            in
            let rewritten =
              match
                Planner.rewrite_to_group meta ~group_index
                  (Ast.Select_stmt select)
              with
              | Ast.Select_stmt s -> s
              | _ -> assert false
            in
            {
              Plan.task_node = node;
              task_stmt =
                Ast.Insert
                  {
                    table = Metadata.shard_name dest_shard;
                    columns = Some cols;
                    source = Ast.Query rewritten;
                    on_conflict_do_nothing;
                  };
              task_group = group_index;
              task_shard = dest_shard.Metadata.shard_id;
            })
          groups
      in
      let results, _ = Adaptive_executor.execute t session tasks in
      let affected =
        List.fold_left (fun acc r -> acc + r.Engine.Instance.affected) 0 results
      in
      dml_result affected
    end
    else begin
      (* strategy 2 (re-partition) when pushdownable with a trivial merge,
         else strategy 3 (pull) *)
      match Planner.plan_pushdown_select meta ~catalog select with
      | tasks, merge when trivial_master merge ->
        let results, _ = Adaptive_executor.execute t session tasks in
        let rows = List.concat_map (fun r -> r.Engine.Instance.rows) results in
        (* task rows include only projected columns (c0..cn) in select
           order; extra sort columns are trailing and dropped *)
        let want = List.length cols in
        let rows =
          List.map
            (fun (row : Datum.t array) ->
              if Array.length row > want then Array.sub row 0 want else row)
            rows
        in
        dml_result
          (insert_rows t session ~table ~cols ~on_conflict_do_nothing rows)
      | _ | exception Planner.Unsupported _ -> pull ()
    end
  | Some { Metadata.kind = Metadata.Distributed; dist_column = None; _ } ->
    err "distributed table %s has no distribution column" table
