open Sqlfront

let err fmt =
  Printf.ksprintf (fun m -> raise (Engine.Instance.Session_error m)) fmt

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

(* Shard [s]'s copy of a secondary index: <index>_<shard id>, as
   CREATE INDEX propagation names it. *)
let shard_index (s : Metadata.shard) (ix : Metadata.index_def) =
  Ast.Create_index
    {
      name = Printf.sprintf "%s_%d" ix.Metadata.ix_name s.Metadata.shard_id;
      table = Metadata.shard_name s;
      using = ix.Metadata.ix_using;
      key_columns = ix.Metadata.ix_columns;
      key_expr = ix.Metadata.ix_expr;
      if_not_exists = false;
    }

(* The logical definition a local table turns into: its secondary
   indexes are all but the primary key's. *)
let definition_of (tbl : Engine.Catalog.table) =
  let name = tbl.Engine.Catalog.tbl_name in
  {
    Metadata.columns = tbl.Engine.Catalog.columns;
    primary_key = tbl.Engine.Catalog.primary_key;
    columnar =
      (match tbl.Engine.Catalog.store with
       | Engine.Catalog.Columnar_store _ -> true
       | Engine.Catalog.Heap_store _ -> false);
    indexes =
      List.filter_map
        (fun { Engine.Catalog.idx_name = ix_name; kind; _ } ->
          match kind with
          | _ when String.equal ix_name (name ^ "_pkey") -> None
          | Engine.Catalog.Btree_index { columns; _ } ->
            Some
              { Metadata.ix_name; ix_using = Ast.Btree; ix_columns = columns;
                ix_expr = None }
          | Engine.Catalog.Gin_index { expr; _ } ->
            Some
              { Metadata.ix_name; ix_using = Ast.Gin_trgm; ix_columns = [];
                ix_expr = Some expr })
        tbl.Engine.Catalog.indexes;
  }

(* The statements that create shard [s] of a table with definition
   [def]: the table (columnar flag and primary key included), then its
   secondary indexes. *)
let shard_schema (def : Metadata.table_def) (s : Metadata.shard) =
  Ast.Create_table
    {
      name = Metadata.shard_name s;
      columns = def.Metadata.columns;
      primary_key = def.Metadata.primary_key;
      if_not_exists = false;
      using_columnar = def.Metadata.columnar;
    }
  :: List.map (shard_index s) def.Metadata.indexes

let create_shards (t : State.t) session (def : Metadata.table_def) shards =
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
  rounds (List.map (fun s -> (s, shard_schema def s)) shards)

let result tag = { Engine.Instance.columns = []; rows = []; affected = 0; tag }

(* DDL on a Citus table changes its definition in [Metadata] (which
   bumps the version, so cached plans revalidate) once every shard has
   taken the statement; no node keeps a copy of the logical table. *)
let utility_hook (t : State.t) session (stmt : Ast.statement) =
  let meta = t.State.metadata in
  let on_shards table make_stmt =
    ignore (run_tasks t session (tasks_for t table ~make_stmt))
  in
  match stmt with
  | Ast.Create_table { name; if_not_exists; _ }
    when Metadata.is_citus_table meta name ->
    if if_not_exists then Some (result "CREATE TABLE")
    else err "relation %s already exists" name
  | _ when Planner.citus_tables meta stmt = [] -> None
  | Ast.Create_index ci ->
    let named (ix : Metadata.index_def) =
      String.equal ix.Metadata.ix_name ci.name
    in
    (match Metadata.find meta ci.table with
     | Some dt when List.exists named dt.Metadata.def.Metadata.indexes ->
       if not ci.if_not_exists then err "index %s already exists" ci.name
     | _ ->
       let ix =
         { Metadata.ix_name = ci.name; ix_using = ci.using;
           ix_columns = ci.key_columns; ix_expr = ci.key_expr }
       in
       on_shards ci.table (fun s -> shard_index s ix);
       Metadata.alter meta ~table:ci.table (fun def ->
           { def with Metadata.indexes = def.Metadata.indexes @ [ ix ] }));
    Some (result "CREATE INDEX")
  | Ast.Alter_table_add_column a ->
    on_shards a.table (fun s ->
        Ast.Alter_table_add_column { a with table = Metadata.shard_name s });
    Metadata.alter meta ~table:a.table (fun def ->
        { def with Metadata.columns = def.Metadata.columns @ [ a.column ] });
    Some (result "ALTER TABLE")
  | Ast.Truncate tables ->
    let citus_tables, local_tables =
      List.partition (Metadata.is_citus_table meta) tables
    in
    if local_tables <> [] then
      ignore (Engine.Instance.exec_utility_local session (Ast.Truncate local_tables));
    List.iter
      (fun table ->
        on_shards table (fun s -> Ast.Truncate [ Metadata.shard_name s ]))
      citus_tables;
    Some (result "TRUNCATE")
  | Ast.Drop_table { name; _ } ->
    on_shards name (fun s ->
        Ast.Drop_table { name = Metadata.shard_name s; if_exists = true });
    Metadata.drop_table meta name;
    Some (result "DROP TABLE")
  | Ast.Vacuum (Some table) ->
    let affected =
      run_tasks t session
        (tasks_for t table ~make_stmt:(fun s ->
             Ast.Vacuum (Some (Metadata.shard_name s))))
    in
    Some { (result "VACUUM") with affected }
  | _ -> None
