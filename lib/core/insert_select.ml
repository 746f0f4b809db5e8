open Sqlfront

type strategy = Colocated | Repartition | Pull

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

(* Insert materialized rows into a distributed destination, grouped by
   target shard — shared by the re-partition and pull strategies. *)
let route_rows (t : State.t) session ~table ~cols ~dist_pos ~dist_ty
    ~on_conflict rows =
  let by_shard : (int, Datum.t array list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (row : Datum.t array) ->
      if Array.length row <> List.length cols then
        err "INSERT..SELECT produced %d columns, expected %d"
          (Array.length row) (List.length cols);
      let v =
        try Datum.cast row.(dist_pos) dist_ty
        with Datum.Cast_error m -> err "%s" m
      in
      if Datum.is_null v then err "the distribution column cannot be NULL";
      let shard = Metadata.shard_for_value t.State.metadata ~table v in
      let bucket =
        match Hashtbl.find_opt by_shard shard.Metadata.shard_id with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.replace by_shard shard.Metadata.shard_id b;
          b
      in
      bucket := row :: !bucket)
    rows;
  let tasks =
    Hashtbl.fold
      (fun shard_id bucket acc ->
        let shard =
          List.find
            (fun (s : Metadata.shard) -> s.Metadata.shard_id = shard_id)
            (Metadata.shards_of t.State.metadata table)
        in
        let tuples =
          List.rev_map
            (fun row -> List.map (fun d -> Ast.Const d) (Array.to_list row))
            !bucket
        in
        {
          Plan.task_node = Metadata.placement t.State.metadata shard_id;
          task_stmt =
            Ast.Insert
              {
                table = Metadata.shard_name shard;
                columns = Some cols;
                source = Ast.Values tuples;
                on_conflict_do_nothing = on_conflict;
              };
          task_group = shard.Metadata.index_in_colocation;
          task_shard = shard_id;
        }
        :: acc)
      by_shard []
  in
  let results, _report = Adaptive_executor.execute t session tasks in
  List.fold_left (fun acc r -> acc + r.Engine.Instance.affected) 0 results

(* Run the source SELECT through whatever distributed (or local) path
   applies and return its rows. *)
let materialize_select (t : State.t) session select =
  let meta = t.State.metadata in
  let catalog = local_catalog t in
  let stmt = Ast.Select_stmt select in
  if Planner.citus_tables meta stmt = [] then begin
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
  match Metadata.find meta table with
  | None -> err "%s is not a Citus table" table
  | Some { Metadata.kind = Metadata.Reference; _ } ->
    (* pull, then write to every replica (the executor expands the task) *)
    let rows = materialize_select t session select in
    let shard =
      match Metadata.shards_of meta table with
      | s :: _ -> s
      | [] -> err "reference table %s has no shard" table
    in
    let tuples =
      List.map
        (fun (row : Datum.t array) ->
          List.map (fun d -> Ast.Const d) (Array.to_list row))
        rows
    in
    let affected =
      if tuples = [] then 0
      else begin
        let tasks =
          [
            {
              Plan.task_node = Metadata.placement meta shard.Metadata.shard_id;
              task_stmt =
                Ast.Insert
                  {
                    table = Metadata.shard_name shard;
                    columns = Some cols;
                    source = Ast.Values tuples;
                    on_conflict_do_nothing;
                  };
              task_group = -1;
              task_shard = shard.Metadata.shard_id;
            };
          ]
        in
        match Adaptive_executor.execute t session tasks with
        | [ r ], _ -> r.Engine.Instance.affected
        | _ -> assert false (* one task, one result *)
      end
    in
    (dml_result affected, Pull)
  | Some { Metadata.kind = Metadata.Distributed; dist_column = Some dc; _ } ->
    let dist_pos =
      match List.find_index (String.equal dc) cols with
      | Some i -> i
      | None ->
        err "INSERT into %s must include the distribution column %s" table dc
    in
    let dist_ty =
      match Engine.Catalog.find_table_opt catalog table with
      | Some tbl ->
        (Engine.Catalog.column_tys tbl).(Engine.Catalog.column_index tbl dc)
      | None -> Datum.TInt
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
      (dml_result affected, Colocated)
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
        let affected =
          route_rows t session ~table ~cols ~dist_pos ~dist_ty
            ~on_conflict:on_conflict_do_nothing rows
        in
        (dml_result affected, Repartition)
      | _tasks, _merge ->
        let rows = materialize_select t session select in
        let affected =
          route_rows t session ~table ~cols ~dist_pos ~dist_ty
            ~on_conflict:on_conflict_do_nothing rows
        in
        (dml_result affected, Pull)
      | exception Planner.Unsupported _ ->
        let rows = materialize_select t session select in
        let affected =
          route_rows t session ~table ~cols ~dist_pos ~dist_ty
            ~on_conflict:on_conflict_do_nothing rows
        in
        (dml_result affected, Pull)
    end
  | Some { Metadata.kind = Metadata.Distributed; dist_column = None; _ } ->
    err "distributed table %s has no distribution column" table
