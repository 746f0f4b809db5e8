open Sqlfront

(* One task per shard of [table], on its first active placement; the
   executor replicates DDL writes across every active placement. A
   reference shard runs outside any colocation group. *)
let shard_task (t : State.t) (s : Metadata.shard) stmt =
  {
    Plan.task_node = Metadata.placement t.State.metadata s.Metadata.shard_id;
    task_stmt = stmt;
    task_group =
      (match Metadata.find t.State.metadata s.Metadata.shard_of with
       | Some { Metadata.kind = Metadata.Reference; _ } -> -1
       | _ -> s.Metadata.index_in_colocation);
    task_shard = s.Metadata.shard_id;
  }

let tasks_for (t : State.t) table ~make_stmt =
  match Metadata.shards_of t.State.metadata table with
  | [] ->
    raise
      (Metadata.Catalog_error (Printf.sprintf "table %s has no shards" table))
  | shards -> List.map (fun s -> shard_task t s (make_stmt s)) shards

let run_tasks (t : State.t) session tasks =
  let results, _report = Adaptive_executor.execute t session tasks in
  List.fold_left (fun acc r -> acc + r.Engine.Instance.affected) 0 results

(* The statements that create shard [s] of the table [src] defines: the
   table (columnar flag and primary key included), then one CREATE INDEX
   per secondary index, named <index>_<shard id> as CREATE INDEX
   propagation names it. [src] is the logical table or one of its shards;
   a shard's index names end in its own "_<id>" (its name past the
   logical table's), which gives way to [s]'s. *)
let shard_schema (src : Engine.Catalog.table) (s : Metadata.shard) =
  let table = Metadata.shard_name s in
  let src_name = src.Engine.Catalog.tbl_name in
  let suffix_len = String.length src_name - String.length s.Metadata.shard_of in
  let index_name name =
    Printf.sprintf "%s_%d"
      (String.sub name 0 (String.length name - suffix_len))
      s.Metadata.shard_id
  in
  Ast.Create_table
    {
      name = table;
      columns = src.Engine.Catalog.columns;
      primary_key = src.Engine.Catalog.primary_key;
      if_not_exists = false;
      using_columnar =
        (match src.Engine.Catalog.store with
         | Engine.Catalog.Columnar_store _ -> true
         | Engine.Catalog.Heap_store _ -> false);
    }
  :: List.filter_map
       (fun (idx : Engine.Catalog.index) ->
         let idx_name = idx.Engine.Catalog.idx_name in
         if String.equal idx_name (src_name ^ "_pkey") then
           None (* implicit in CREATE TABLE *)
         else
           let using, key_columns, key_expr =
             match idx.Engine.Catalog.kind with
             | Engine.Catalog.Btree_index { columns; _ } ->
               (Ast.Btree, columns, None)
             | Engine.Catalog.Gin_index { expr; _ } ->
               (Ast.Gin_trgm, [], Some expr)
           in
           Some
             (Ast.Create_index
                {
                  name = index_name idx_name;
                  table;
                  using;
                  key_columns;
                  key_expr;
                  if_not_exists = false;
                }))
       src.Engine.Catalog.indexes

let create_shards (t : State.t) session (src : Engine.Catalog.table) shards =
  (* round k runs every shard's k-th statement, so each shard's table
     exists before its indexes *)
  let rec rounds schemas =
    match
      List.filter_map
        (function s, stmt :: rest -> Some (s, stmt, rest) | _, [] -> None)
        schemas
    with
    | [] -> ()
    | round ->
      ignore
        (run_tasks t session
           (List.map (fun (s, stmt, _) -> shard_task t s stmt) round));
      rounds (List.map (fun (s, _, rest) -> (s, rest)) round)
  in
  rounds (List.map (fun s -> (s, shard_schema src s)) shards)

let utility_hook (t : State.t) session (stmt : Ast.statement) =
  let meta = t.State.metadata in
  let citus = Planner.citus_tables meta stmt in
  if citus = [] then None
  else
    let apply_local () = Engine.Instance.exec_utility_local session stmt in
    match stmt with
    | Ast.Create_index ci ->
      (* local schema copy first, then one index per shard. Schema DDL
         lives outside [Metadata], so it must bump the metadata version
         by hand, so every node's cached prepared-statement plans
         revalidate. *)
      Metadata.bump_version t.State.metadata;
      let local = apply_local () in
      let make_stmt (s : Metadata.shard) =
        Ast.Create_index
          {
            ci with
            name = Printf.sprintf "%s_%d" ci.name s.Metadata.shard_id;
            table = Metadata.shard_name s;
          }
      in
      ignore (run_tasks t session (tasks_for t ci.table ~make_stmt));
      Some local
    | Ast.Alter_table_add_column a ->
      (* schema DDL: bump by hand, as for CREATE INDEX *)
      Metadata.bump_version t.State.metadata;
      let local = apply_local () in
      let make_stmt (s : Metadata.shard) =
        Ast.Alter_table_add_column { a with table = Metadata.shard_name s }
      in
      ignore (run_tasks t session (tasks_for t a.table ~make_stmt));
      Some local
    | Ast.Truncate tables ->
      let citus_tables, local_tables =
        List.partition (Metadata.is_citus_table meta) tables
      in
      if local_tables <> [] then
        ignore (Engine.Instance.exec_utility_local session (Ast.Truncate local_tables));
      List.iter
        (fun table ->
          (* also empty the coordinator's schema copy *)
          ignore
            (Engine.Instance.exec_utility_local session (Ast.Truncate [ table ]));
          let make_stmt (s : Metadata.shard) =
            Ast.Truncate [ Metadata.shard_name s ]
          in
          ignore (run_tasks t session (tasks_for t table ~make_stmt)))
        citus_tables;
      Some
        { Engine.Instance.columns = []; rows = []; affected = 0; tag = "TRUNCATE" }
    | Ast.Drop_table { name; if_exists } ->
      let make_stmt (s : Metadata.shard) =
        Ast.Drop_table { name = Metadata.shard_name s; if_exists = true }
      in
      ignore (run_tasks t session (tasks_for t name ~make_stmt));
      Metadata.drop_table t.State.metadata name;
      Some (Engine.Instance.exec_utility_local session
              (Ast.Drop_table { name; if_exists }))
    | Ast.Vacuum (Some table) ->
      let make_stmt (s : Metadata.shard) =
        Ast.Vacuum (Some (Metadata.shard_name s))
      in
      let affected = run_tasks t session (tasks_for t table ~make_stmt) in
      Some
        { Engine.Instance.columns = []; rows = []; affected; tag = "VACUUM" }
    | _ -> None
