open Sqlfront

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type move =
  | Broadcast of { table : string; rows : int }
  | Repartition of { table : string; rows : int }

type decision = { anchor : string; moves : move list; est_shipped : int }

let broadcast_threshold = ref 10_000

let temp_seq = ref 0

(* --- query shape analysis --- *)

(* (table, alias) pairs of the base relations; subselects containing
   distributed tables are out of scope for this planner. *)
let rec base_relations meta = function
  | Ast.Table { name; alias } -> [ (name, Option.value ~default:name alias) ]
  | Ast.Join { left; right; _ } ->
    base_relations meta left @ base_relations meta right
  | Ast.Subselect (sub, _) ->
    let inner =
      List.concat_map (base_relations meta) sub.Ast.from
      |> List.filter (fun (n, _) ->
             match Metadata.find meta n with
             | Some { Metadata.kind = Metadata.Distributed; _ } -> true
             | _ -> false)
    in
    if inner <> [] then
      unsupported
        "subqueries under non-co-located joins are not supported";
    []

let column_matches alias col (q, c) =
  String.equal col c
  && match q with None -> false | Some q -> String.equal q alias

(* is there an equality between (a_alias, a_col) and any column of b? *)
let equi_join_column conjs ~a_alias ~a_col ~b_alias =
  List.find_map
    (fun conj ->
      match conj with
      | Ast.Cmp (Ast.Eq, Ast.Column (q1, c1), Ast.Column (q2, c2)) ->
        if
          column_matches a_alias a_col (q1, c1)
          && (match q2 with Some q -> String.equal q b_alias | None -> false)
        then Some c2
        else if
          column_matches a_alias a_col (q2, c2)
          && (match q1 with Some q -> String.equal q b_alias | None -> false)
        then Some c1
        else None
      | _ -> None)
    conjs

let dist_column meta table =
  match Metadata.find meta table with
  | Some { Metadata.dist_column = Some dc; _ } -> dc
  | _ -> unsupported "%s has no distribution column" table

(* --- single-table reads --- *)

(* Plan and run a single-table distributed SELECT through the normal
   planner and executor. Built as an AST, not interpolated SQL text:
   [table] comes from the catalog, but going through the printer/parser
   would still be the only place in the tree where identifiers reach a
   parser as a string. *)
let run_single_table (t : State.t) session ~table ?alias ?where projections =
  let catalog =
    Engine.Instance.catalog t.State.local.Cluster.Topology.instance
  in
  let sel =
    {
      Ast.distinct = false;
      projections;
      from = [ Ast.Table { name = table; alias } ];
      where;
      group_by = [];
      having = None;
      order_by = [];
      limit = None;
      offset = None;
    }
  in
  match
    Planner.plan t.State.metadata ~catalog
      ~local_name:t.State.local.Cluster.Topology.node_name
      (Ast.Select_stmt sel)
  with
  | plan, _ -> (fst (Dist_executor.execute t session plan)).Engine.Instance.rows
  | exception Planner.Unsupported m -> unsupported "%s" m

let estimate_rows (t : State.t) session table =
  match
    run_single_table t session ~table
      [
        Ast.Proj
          ( Ast.Agg { agg_name = "count"; agg_arg = None; agg_distinct = false },
            None );
      ]
  with
  | [ [| Datum.Int n |] ] -> n
  | _ -> 0

(* --- planning --- *)

type classification =
  | Free  (** co-located with the anchor and joined on the dist column *)
  | Move_repartition of string  (** join column of the moved table *)
  | Move_broadcast

let classify (t : State.t) conjs ~anchor ~anchor_alias ~table ~alias ~rows =
  let meta = t.State.metadata in
  let a_dc = dist_column meta anchor in
  let b_dc = dist_column meta table in
  let joined_on_both_dist =
    match equi_join_column conjs ~a_alias:anchor_alias ~a_col:a_dc ~b_alias:alias with
    | Some c -> String.equal c b_dc
    | None -> false
  in
  if Metadata.colocated meta [ anchor; table ] && joined_on_both_dist then
    Some Free
  else
    match equi_join_column conjs ~a_alias:anchor_alias ~a_col:a_dc ~b_alias:alias with
    | Some join_col -> Some (Move_repartition join_col)
    | None -> if rows <= !broadcast_threshold then Some Move_broadcast else None

let choose_anchor (t : State.t) conjs dists rows_of =
  let meta = t.State.metadata in
  let num_nodes = List.length (Metadata.nodes_in_use meta) in
  let candidates =
    List.filter_map
      (fun (anchor, anchor_alias) ->
        let others = List.filter (fun (n, _) -> n <> anchor) dists in
        let classified =
          List.map
            (fun (table, alias) ->
              let rows = rows_of table in
              match
                classify t conjs ~anchor ~anchor_alias ~table ~alias ~rows
              with
              | Some c -> Some (table, alias, rows, c)
              | None -> None)
            others
        in
        let classified = List.filter_map Fun.id classified in
        (* any [None] classification disqualifies this anchor *)
        if List.compare_lengths classified others <> 0 then None
        else begin
          let cost =
            List.fold_left
              (fun acc (_, _, rows, c) ->
                match c with
                | Free -> acc
                | Move_repartition _ -> acc + rows
                | Move_broadcast -> acc + (rows * max 1 num_nodes))
              0 classified
          in
          Some ((anchor, anchor_alias), classified, cost)
        end)
      dists
  in
  match candidates with
  | [] ->
    unsupported
      "no feasible join order: non-co-located tables are too large to \
       broadcast and do not join on a distribution column"
  | first :: rest ->
    List.fold_left
      (fun ((_, _, bc) as best) ((_, _, c) as cand) ->
        if c < bc then cand else best)
      first rest

(* The analysis EXPLAIN and execution share: the distributed relations,
   the conjuncts, one count() estimate per table and the cheapest
   feasible anchor. Moves no data. *)
let analyze (t : State.t) session (sel : Ast.select) =
  let meta = t.State.metadata in
  let dists =
    List.filter
      (fun (n, _) ->
        match Metadata.find meta n with
        | Some { Metadata.kind = Metadata.Distributed; _ } -> true
        | _ -> false)
      (List.concat_map (base_relations meta) sel.from)
  in
  if List.length dists < 2 then
    unsupported "join-order planning needs at least two distributed tables";
  let conjs = Planner.conjuncts_of_select sel in
  let row_cache = Hashtbl.create 8 in
  let rows_of table =
    match Hashtbl.find_opt row_cache table with
    | Some n -> n
    | None ->
      let n = estimate_rows t session table in
      Hashtbl.replace row_cache table n;
      n
  in
  let (anchor, _), classified, est_shipped =
    choose_anchor t conjs dists rows_of
  in
  let moves =
    List.filter_map
      (fun (table, _, rows, cls) ->
        match cls with
        | Free -> None
        | Move_repartition _ -> Some (Repartition { table; rows })
        | Move_broadcast -> Some (Broadcast { table; rows }))
      classified
  in
  (conjs, classified, { anchor; moves; est_shipped })

let decide t session sel =
  let _, _, decision = analyze t session sel in
  decision

(* --- data movement --- *)

let materialize (t : State.t) session ~table ~alias conjs =
  (* single-table distributed select with the qualified filters pushed in *)
  let pushed =
    List.filter
      (fun conj ->
        let only_this = ref true in
        ignore
          (Ast.fold_expr
             (fun () n ->
               match n with
               | Ast.Column (Some q, _) when String.equal q alias -> ()
               | Ast.Column _ -> only_this := false
               | Ast.Exists _ | Ast.In_subquery _ | Ast.Scalar_subquery _ ->
                 only_this := false
               | _ -> ())
             () conj);
        !only_this)
      conjs
  in
  run_single_table t session ~table ~alias ?where:(Ast.conjoin pushed)
    [ Ast.Star ]

let create_temp_table (t : State.t) ~node ~name ~src_table =
  let catalog =
    Engine.Instance.catalog t.State.local.Cluster.Topology.instance
  in
  let src =
    match Engine.Catalog.find_table_opt catalog src_table with
    | Some tbl -> tbl
    | None -> unsupported "relation %s does not exist" src_table
  in
  let conn =
    Cluster.Connection.open_
      ~origin:t.State.local.Cluster.Topology.node_name t.State.cluster
      (Cluster.Topology.find_node t.State.cluster node)
  in
  ignore
    (Cluster.Connection.exec_ast conn
       (Ast.Create_table
          {
            name;
            columns = src.Engine.Catalog.columns;
            primary_key = [];
            if_not_exists = false;
            using_columnar = false;
          }));
  conn

let insert_rows_via (t : State.t) conn ~table rows =
  if rows <> [] then begin
    t.State.cluster.Cluster.Topology.net.Cluster.Topology.rows_shipped <-
      t.State.cluster.Cluster.Topology.net.Cluster.Topology.rows_shipped
      + List.length rows;
    let tuples =
      List.map
        (fun (row : Datum.t array) ->
          List.map (fun d -> Ast.Const d) (Array.to_list row))
        rows
    in
    ignore
      (Cluster.Connection.exec_ast conn
         (Ast.Insert
            {
              table;
              columns = None;
              source = Ast.Values tuples;
              on_conflict_do_nothing = false;
            }))
  end

let drop_temp conn name =
  try
    ignore
      (Cluster.Connection.exec_ast conn
         (Ast.Drop_table { name; if_exists = true }))
  with _ -> ()

(* --- execution --- *)

let execute (t : State.t) session (sel : Ast.select) =
  let meta = t.State.metadata in
  let conjs, classified, decision = analyze t session sel in
  let anchor = decision.anchor in
  incr temp_seq;
  let seq = !temp_seq in
  let anchor_groups = Metadata.shard_groups meta ~tables:[ anchor ] in
  let cleanup = ref [] in
  (* broadcast_map: table -> temp name; repart_map: table -> group -> name *)
  let bcast_map = Hashtbl.create 4 in
  let repart_map = Hashtbl.create 4 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (conn, name) -> drop_temp conn name) !cleanup)
    (fun () ->
      List.iter
        (fun (table, alias, _, cls) ->
          match cls with
          | Free -> ()
          | Move_broadcast ->
            let data = materialize t session ~table ~alias conjs in
            let name = Printf.sprintf "citus_bcast_%d_%s" seq table in
            let nodes =
              List.sort_uniq String.compare (List.map (fun (_, n, _) -> n) anchor_groups)
            in
            List.iter
              (fun node ->
                let conn = create_temp_table t ~node ~name ~src_table:table in
                insert_rows_via t conn ~table:name data;
                cleanup := (conn, name) :: !cleanup)
              nodes;
            Hashtbl.replace bcast_map table name
          | Move_repartition join_col ->
            let data = materialize t session ~table ~alias conjs in
            let catalog =
              Engine.Instance.catalog t.State.local.Cluster.Topology.instance
            in
            let tbl =
              match Engine.Catalog.find_table_opt catalog table with
              | Some tbl -> tbl
              | None -> unsupported "relation %s does not exist" table
            in
            let pos = Engine.Catalog.column_index tbl join_col in
            (* bucket rows into the anchor's hash ranges *)
            let buckets = Hashtbl.create 16 in
            List.iter
              (fun (row : Datum.t array) ->
                let v = row.(pos) in
                if not (Datum.is_null v) then begin
                  let shard = Metadata.shard_for_value meta ~table:anchor v in
                  let gi = shard.Metadata.index_in_colocation in
                  let b =
                    match Hashtbl.find_opt buckets gi with
                    | Some b -> b
                    | None ->
                      let b = ref [] in
                      Hashtbl.replace buckets gi b;
                      b
                  in
                  b := row :: !b
                end)
              data;
            let frag_names = Hashtbl.create 16 in
            List.iter
              (fun (gi, node, _) ->
                let name =
                  Printf.sprintf "citus_repart_%d_%s_%d" seq table gi
                in
                let conn = create_temp_table t ~node ~name ~src_table:table in
                let rows =
                  match Hashtbl.find_opt buckets gi with
                  | Some b -> List.rev !b
                  | None -> []
                in
                insert_rows_via t conn ~table:name rows;
                cleanup := (conn, name) :: !cleanup;
                Hashtbl.replace frag_names gi name)
              anchor_groups;
            Hashtbl.replace repart_map table frag_names)
        classified;
      (* build the pushdown parts and per-group tasks with a combined
         rename: moved tables to their temp/fragment relations, everything
         else to the group's shards *)
      let catalog =
        Engine.Instance.catalog t.State.local.Cluster.Topology.instance
      in
      let task_select, merge =
        try Planner.pushdown_parts meta ~catalog sel
        with Planner.Unsupported m -> unsupported "%s" m
      in
      let tasks =
        List.map
          (fun (gi, node, _members) ->
            let rename name =
              match Hashtbl.find_opt bcast_map name with
              | Some temp -> temp
              | None ->
                (match Hashtbl.find_opt repart_map name with
                 | Some frags -> (
                   match Hashtbl.find_opt frags gi with
                   | Some frag -> frag
                   | None ->
                     unsupported "no fragment of %s for shard group %d" name gi)
                 | None -> Planner.shard_table_name meta ~group_index:gi name)
            in
            {
              Plan.task_node = node;
              task_stmt =
                Ast.rename_tables_statement rename
                  (Ast.Select_stmt task_select);
              task_group = gi;
              (* the task reads node-local repartition/broadcast fragments:
                 it cannot fail over to another replica of the anchor shard *)
              task_shard = -1;
            })
          anchor_groups
      in
      let result, report =
        Dist_executor.execute t session
          (Plan.Multi_shard_select { tasks; merge })
      in
      (result, decision, report))
