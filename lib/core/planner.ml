open Sqlfront

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type tier = Tier_fast_path | Tier_router | Tier_pushdown | Tier_dml | Tier_reference

let tier_name = function
  | Tier_fast_path -> "fast path"
  | Tier_router -> "router"
  | Tier_pushdown -> "logical pushdown"
  | Tier_dml -> "parallel DML"
  | Tier_reference -> "reference write"

(* metric/tag-safe identifier; the join-order fallback in Api uses
   "join_order" in the same namespace *)
let tier_slug = function
  | Tier_fast_path -> "fast_path"
  | Tier_router -> "router"
  | Tier_pushdown -> "pushdown"
  | Tier_dml -> "dml"
  | Tier_reference -> "reference"

(* --- discovery: citus tables and aliases --- *)

let rec tables_in_from_item acc = function
  | Ast.Table { name; alias } ->
    (name, Option.value ~default:name alias) :: acc
  | Ast.Subselect (sel, _) -> tables_in_select acc sel
  | Ast.Join { left; right; _ } ->
    tables_in_from_item (tables_in_from_item acc left) right

and tables_in_select acc (sel : Ast.select) =
  let acc = List.fold_left tables_in_from_item acc sel.from in
  let in_expr acc e =
    Ast.fold_expr
      (fun acc n ->
        match n with
        | Ast.Exists (s, _) | Ast.Scalar_subquery s | Ast.In_subquery (_, s, _)
          ->
          tables_in_select acc s
        | _ -> acc)
      acc e
  in
  let acc = match sel.where with Some w -> in_expr acc w | None -> acc in
  let acc = match sel.having with Some h -> in_expr acc h | None -> acc in
  List.fold_left
    (fun acc p -> match p with Ast.Proj (e, _) -> in_expr acc e | _ -> acc)
    acc sel.projections

(* (table name, alias) pairs for every referenced relation *)
let tables_in_statement (stmt : Ast.statement) : (string * string) list =
  match stmt with
  | Ast.Select_stmt sel -> tables_in_select [] sel
  | Ast.Insert { table; source; _ } ->
    let acc = [ (table, table) ] in
    (match source with
     | Ast.Values _ -> acc
     | Ast.Query sel -> tables_in_select acc sel)
  | Ast.Update { table; where; _ } | Ast.Delete { table; where } ->
    let acc = [ (table, table) ] in
    (match where with
     | Some w ->
       Ast.fold_expr
         (fun acc n ->
           match n with
           | Ast.Exists (s, _) | Ast.Scalar_subquery s
           | Ast.In_subquery (_, s, _) ->
             tables_in_select acc s
           | _ -> acc)
         acc w
     | None -> acc)
  | Ast.Create_index { table; _ } -> [ (table, table) ]
  | Ast.Copy_from { table; _ } -> [ (table, table) ]
  | Ast.Truncate ts -> List.map (fun t -> (t, t)) ts
  | Ast.Drop_table { name; _ } -> [ (name, name) ]
  | Ast.Alter_table_add_column { table; _ } -> [ (table, table) ]
  | Ast.Vacuum (Some t) -> [ (t, t) ]
  | _ -> []

let citus_tables meta stmt =
  tables_in_statement stmt
  |> List.map fst
  |> List.filter (Metadata.is_citus_table meta)
  |> List.sort_uniq String.compare

let names_citus_table meta stmt =
  List.exists (fun (name, _) -> Metadata.is_citus_table meta name) (tables_in_statement stmt)

let dist_tables_of meta names =
  List.filter
    (fun n ->
      match Metadata.find meta n with
      | Some { Metadata.kind = Metadata.Distributed; _ } -> true
      | _ -> false)
    names

(* --- distribution column filters --- *)

(* Aliases under which each citus table appears in the statement. *)
let alias_map meta stmt =
  tables_in_statement stmt
  |> List.filter (fun (t, _) -> Metadata.is_citus_table meta t)

let rec conjuncts_of_select (sel : Ast.select) =
  let level = match sel.where with Some w -> Ast.conjuncts w | None -> [] in
  let rec from_item_conjs = function
    | Ast.Table _ -> []
    | Ast.Subselect (s, _) -> conjuncts_of_select s
    | Ast.Join { left; right; cond; _ } ->
      (match cond with Some c -> Ast.conjuncts c | None -> [])
      @ from_item_conjs left @ from_item_conjs right
  in
  level @ List.concat_map from_item_conjs sel.from

let conjuncts_of_statement = function
  | Ast.Select_stmt sel -> conjuncts_of_select sel
  | Ast.Insert { source = Ast.Query sel; _ } -> conjuncts_of_select sel
  | Ast.Update { where; _ } | Ast.Delete { where; _ } ->
    (match where with Some w -> Ast.conjuncts w | None -> [])
  | _ -> []

let is_constant e =
  match e with
  | Ast.Const _ -> true
  | _ ->
    (* no column refs anywhere *)
    Ast.fold_expr
      (fun ok n -> ok && match n with Ast.Column _ -> false | _ -> true)
      true e

let eval_const e =
  match e with
  | Ast.Const d -> Some d
  | _ when is_constant e ->
    (try
       Some
         (Engine.Expr_eval.eval
            {
              Engine.Expr_eval.rng = Random.State.make [| 0 |];
              now = 0.0;
              subquery = (fun _ -> []);
            }
            e)
     with _ -> None)
  | _ -> None

(* Citus tables (from [aliases]) whose distribution column the column
   reference [q.c] names. An unqualified [w_id] matches every table
   distributed by a column named w_id. *)
let match_column meta aliases q c =
  List.filter_map
    (fun (table, alias) ->
      match Metadata.find meta table with
      | Some { Metadata.dist_column = Some dc; _ } when String.equal dc c ->
        (match q with
         | None -> Some table
         | Some q when String.equal q alias || String.equal q table ->
           Some table
         | Some _ -> None)
      | _ -> None)
    aliases

type dist_key = Key_param of int | Key_const of Datum.t

(* The one distribution-filter extractor, behind both single-task
   routing and shard pruning: (table, key) for every conjunct
   [dist_col = $k] or [dist_col = non-null constant]. *)
let dist_key_filters meta aliases conjs : (string * dist_key) list =
  let key_of e =
    match e with
    | Ast.Param k -> Some (Key_param k)
    | _ ->
      (match eval_const e with
       | Some v when not (Datum.is_null v) -> Some (Key_const v)
       | _ -> None)
  in
  List.concat_map
    (function
      | Ast.Cmp (Ast.Eq, Ast.Column (q, c), e)
      | Ast.Cmp (Ast.Eq, e, Ast.Column (q, c)) ->
        (match key_of e with
         | Some k -> List.map (fun t -> (t, k)) (match_column meta aliases q c)
         | None -> [])
      | _ -> [])
    conjs

(* Shard pruning: conjuncts of the form [dist_col = const] or
   [dist_col IN (consts)] restrict which shard groups a multi-shard plan
   must visit. Returns [None] when any distributed table is unconstrained
   (all groups), otherwise the set of group indexes. *)
let pruned_groups meta stmt : int list option =
  let aliases = alias_map meta stmt in
  let conjs = conjuncts_of_statement stmt in
  let groups_of table v =
    (Metadata.shard_for_value meta ~table v).Metadata.index_in_colocation
  in
  (* per distributed table: Some groups when a constraint exists *)
  let constraints : (string, int list) Hashtbl.t = Hashtbl.create 4 in
  let add table gs =
    let existing = Option.value ~default:gs (Hashtbl.find_opt constraints table) in
    (* multiple constraints on the same table intersect *)
    Hashtbl.replace constraints table
      (List.filter (fun g -> List.mem g gs) existing)
  in
  List.iter
    (function
      | t, Key_const v -> add t [ groups_of t v ]
      | _, Key_param _ -> ())
    (dist_key_filters meta aliases conjs);
  List.iter
    (function
      | Ast.In_list (Ast.Column (q, c), items, false) ->
        let values = List.filter_map eval_const items in
        if List.length values = List.length items
           && List.for_all (fun v -> not (Datum.is_null v)) values
        then
          List.iter
            (fun t ->
              add t
                (List.sort_uniq Int.compare (List.map (groups_of t) values)))
            (match_column meta aliases q c)
      | _ -> ())
    conjs;
  let dists =
    dist_tables_of meta (List.sort_uniq String.compare (List.map fst aliases))
  in
  let per_table =
    List.filter_map (fun t -> Hashtbl.find_opt constraints t) dists
  in
  (* an unconstrained distributed table (missing from [constraints]) means
     all groups must be visited *)
  if List.compare_lengths per_table dists <> 0 then None
  else
    (* co-located tables share the group space: intersect *)
    match per_table with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun acc gs -> List.filter (fun g -> List.mem g gs) acc)
           first rest)

(* --- shard rewriting --- *)

let shard_table_name meta ?group_index name =
  match (Metadata.find meta name, group_index) with
  | Some { Metadata.kind = Metadata.Reference; _ }, _ ->
    (match Metadata.shards_of meta name with
     | [ s ] -> Metadata.shard_name s
     | _ -> name)
  | Some { Metadata.kind = Metadata.Distributed; _ }, Some group_index ->
    Metadata.shard_name
      (List.find
         (fun (s : Metadata.shard) -> s.index_in_colocation = group_index)
         (Metadata.shards_of meta name))
  | _ -> name

let rewrite_to_group meta ~group_index stmt =
  Ast.rename_tables_statement (shard_table_name meta ~group_index) stmt

(* Simple CRUD on one table: single-table SELECT without subqueries,
   UPDATE or DELETE — what [analyze_shape] labels the fast path when the
   table is its anchor. Returns the target table. *)
let fast_path_target (stmt : Ast.statement) : string option =
  let simple_select sel =
    match sel.Ast.from with
    | [ Ast.Table { name; _ } ] ->
      let no_subqueries =
        conjuncts_of_select sel
        |> List.for_all (fun c ->
               Ast.fold_expr
                 (fun ok n ->
                   ok
                   && match n with
                      | Ast.Exists _ | Ast.In_subquery _ | Ast.Scalar_subquery _
                        -> false
                      | _ -> true)
                 true c)
      in
      if no_subqueries then Some name else None
    | _ -> None
  in
  match stmt with
  | Ast.Select_stmt sel -> simple_select sel
  | Ast.Update { table; _ } | Ast.Delete { table; _ } -> Some table
  | _ -> None

(* --- single-task routing: the one classifier --- *)

(* Where an INSERT with [columns] puts the distribution column: full-width
   VALUES follow the definition's column order. *)
let dist_position (dt : Metadata.dist_table) columns =
  Option.bind dt.Metadata.dist_column (fun dist_col ->
      match columns with
      | Some cols -> List.find_index (String.equal dist_col) cols
      | None -> Metadata.column_index dt dist_col)

type shape =
  | Local_read
  | Single_group of { anchor : string; tier : tier; key : dist_key }

let shape_tier = function
  | Local_read -> Tier_router
  | Single_group { tier; _ } -> tier

(* Is the statement single-task whatever value its routing key takes?
   [plan] asks this of concrete statements and the plan cache of shapes
   with parameters unbound, so the answer never depends on a bound
   value. Single-task statements are: a SELECT over reference and local
   tables only (every node holds a replica: run it where it was
   planned); a single-row INSERT whose distribution-column position
   holds [$k] or a non-null constant; and a SELECT / UPDATE / DELETE
   over co-located Citus tables only, every distributed one filtered by
   equality on its distribution column against the {e same} key.
   Anything else goes to the multi-shard tiers, so being conservative
   here costs latency, never correctness. *)
let analyze_shape meta (stmt : Ast.statement) : shape option =
  match stmt with
  | Ast.Insert { table; columns; source = Ast.Values [ tuple ]; _ } ->
    (match Metadata.find meta table with
     | Some ({ Metadata.kind = Metadata.Distributed; _ } as dt) ->
       let key =
         match Option.bind (dist_position dt columns) (List.nth_opt tuple) with
         | Some (Ast.Param k) -> Some (Key_param k)
         | Some e ->
           (match eval_const e with
            | Some v when not (Datum.is_null v) -> Some (Key_const v)
            | _ -> None)
         | None -> None
       in
       Option.map
         (fun key -> Single_group { anchor = table; tier = Tier_fast_path; key })
         key
     | _ -> None)
  | Ast.Select_stmt _ | Ast.Update _ | Ast.Delete _ ->
    let names =
      List.sort_uniq String.compare (List.map fst (tables_in_statement stmt))
    in
    (match dist_tables_of meta names, stmt with
     | [], Ast.Select_stmt _ -> Some Local_read
     | [], _ -> None
     | (anchor :: _ as dists), _ ->
       if
         (not (List.for_all (Metadata.is_citus_table meta) names))
         || not (Metadata.colocated meta names)
       then None
       else begin
         let filters =
           dist_key_filters meta (alias_map meta stmt)
             (conjuncts_of_statement stmt)
         in
         let keys = List.filter_map (fun t -> List.assoc_opt t filters) dists in
         match keys with
         | key :: rest
           when List.compare_lengths keys dists = 0
                && List.for_all (( = ) key) rest ->
           let tier =
             match fast_path_target stmt with
             | Some t when String.equal t anchor -> Tier_fast_path
             | _ -> Tier_router
           in
           Some (Single_group { anchor; tier; key })
         | _ -> None
       end)
  | _ -> None

(* Shard groups a shape's cached skeleton spans: every group of the
   anchor, or the single local group [-1] of a reference-only read. *)
let shape_groups meta = function
  | Local_read -> [ -1 ]
  | Single_group { anchor; _ } ->
    List.map
      (fun (s : Metadata.shard) -> s.Metadata.index_in_colocation)
      (Metadata.shards_of meta anchor)

(* Value -> shard -> placement -> task, shared by [plan] and the plan
   cache's bind-time dispatch: [bind] supplies a [$k] routing value, it
   hashes to a shard group of the anchor, a fresh placement serves that
   group, and [stmt_for] supplies the statement rewritten to it. *)
let single_task ?node_ok meta ~local_name ~bind ~stmt_for shape : Plan.t =
  match shape with
  | Local_read ->
    Plan.Router
      {
        Plan.task_node = local_name;
        task_stmt = stmt_for (-1);
        task_group = -1;
        task_shard = -1;
      }
  | Single_group { anchor; tier; key } ->
    let value = match key with Key_const v -> v | Key_param k -> bind k in
    let shard = Metadata.shard_for_value meta ~table:anchor value in
    let group = shard.Metadata.index_in_colocation in
    let task =
      {
        Plan.task_node =
          Metadata.select_placement ?node_ok meta shard.Metadata.shard_id;
        task_stmt = stmt_for group;
        task_group = group;
        task_shard = shard.Metadata.shard_id;
      }
    in
    if tier = Tier_fast_path then Plan.Fast_path task else Plan.Router task

(* --- pushdown validation --- *)

(* Distributed base tables (with aliases) at one select level, not
   descending into subselects. *)
let rec level_dist_tables meta = function
  | Ast.Table { name; alias } ->
    (match Metadata.find meta name with
     | Some { Metadata.kind = Metadata.Distributed; dist_column = Some dc; _ } ->
       [ (name, Option.value ~default:name alias, dc) ]
     | _ -> [])
  | Ast.Subselect _ -> []
  | Ast.Join { left; right; _ } ->
    level_dist_tables meta left @ level_dist_tables meta right

let column_matches_dist (q, c) (table, alias, dc) =
  String.equal c dc
  &&
  match q with
  | None -> true
  | Some q -> String.equal q alias || String.equal q table

(* Somewhere in [conjs] there is an equality between the dist columns of
   [t1] and [t2]. *)
let joined_on_dist_col conjs t1 t2 =
  List.exists
    (fun conj ->
      match conj with
      | Ast.Cmp (Ast.Eq, Ast.Column (q1, c1), Ast.Column (q2, c2)) ->
        (column_matches_dist (q1, c1) t1 && column_matches_dist (q2, c2) t2)
        || (column_matches_dist (q1, c1) t2 && column_matches_dist (q2, c2) t1)
      | _ -> false)
    conjs

let rec select_has_agg (sel : Ast.select) =
  List.exists
    (function Ast.Proj (e, _) -> Ast.contains_aggregate e | _ -> false)
    sel.projections
  ||
  match sel.having with Some h -> Ast.contains_aggregate h | None -> false

and validate_pushdown_level meta ~is_top (sel : Ast.select) =
  let dists = List.concat_map (level_dist_tables meta) sel.from in
  let conjs = conjuncts_of_select sel in
  (* pairwise co-located join check *)
  let rec pairs = function
    | [] | [ _ ] -> ()
    | t1 :: rest ->
      List.iter
        (fun t2 ->
          if not (joined_on_dist_col conjs t1 t2) then
            unsupported
              "complex joins between distributed tables %s and %s are only \
               supported when joined on their distribution columns"
              (match t1 with n, _, _ -> n)
              (match t2 with n, _, _ -> n))
        rest;
      pairs rest
  in
  pairs dists;
  (* scalar subqueries on distributed tables inside expressions are not
     pushdownable *)
  let check_expr e =
    Ast.fold_expr
      (fun () n ->
        match n with
        | Ast.Exists (s, _) | Ast.Scalar_subquery s | Ast.In_subquery (_, s, _)
          ->
          if dist_tables_of meta (List.map fst (tables_in_select [] s)) <> []
          then
            unsupported
              "subqueries on distributed tables in expressions are not \
               supported in multi-shard queries"
        | _ -> ())
      () e
  in
  (match sel.where with Some w -> check_expr w | None -> ());
  (* recurse into FROM subselects with their own rules *)
  let rec check_item = function
    | Ast.Table _ -> ()
    | Ast.Join { left; right; _ } -> check_item left; check_item right
    | Ast.Subselect (sub, _) ->
      let sub_dists = List.concat_map (level_dist_tables meta) sub.from in
      if sub_dists <> [] then begin
        if sub.limit <> None || sub.offset <> None || sub.distinct then
          unsupported
            "LIMIT/OFFSET/DISTINCT in subqueries on distributed tables \
             require a merge step";
        if sub.group_by <> [] then begin
          let groups_on_dist =
            List.exists
              (fun g ->
                match g with
                | Ast.Column (q, c) ->
                  List.exists (column_matches_dist (q, c)) sub_dists
                | _ -> false)
              sub.group_by
          in
          if not (groups_on_dist) then
            unsupported
              "GROUP BY in a subquery on distributed tables must include \
               the distribution column"
        end
        else if select_has_agg sub then
          unsupported
            "aggregates in a subquery on distributed tables require a merge \
             step"
      end;
      validate_pushdown_level meta ~is_top:false sub
  in
  List.iter check_item sel.from;
  ignore is_top

(* --- pushdown construction --- *)

let intermediate_relation = "citus_intermediate"

(* Expand * / t.* projections from the tables' logical definitions. *)
let expand_stars meta (sel : Ast.select) =
  let star_cols want_alias =
    List.concat_map
      (fun item ->
        match item with
        | Ast.Table { name; alias } ->
          let a = Option.value ~default:name alias in
          if want_alias = None || want_alias = Some a then
            (match Metadata.find meta name with
             | Some dt ->
               List.map
                 (fun c -> Ast.Proj (Ast.Column (Some a, c), None))
                 (Metadata.column_names dt)
             | None -> unsupported "cannot expand * for unknown table %s" name)
          else []
        | Ast.Join _ | Ast.Subselect _ ->
          if want_alias = None then
            unsupported "* projections over joins/subqueries are not supported \
                         in multi-shard queries"
          else [])
      sel.from
  in
  let projections =
    List.concat_map
      (fun p ->
        match p with
        | Ast.Star -> star_cols None
        | Ast.Star_of a -> star_cols (Some a)
        | Ast.Proj _ -> [ p ])
      sel.projections
  in
  { sel with projections }

(* Replace group-key expressions / aggregates with references into the
   intermediate relation, top-down. *)
let rec substitute_master group_keys agg_master e =
  match List.find_index (fun g -> g = e) group_keys with
  | Some i -> Ast.Column (None, Printf.sprintf "g%d" i)
  | None ->
    (match e with
     | Ast.Agg a ->
       (match List.assoc_opt a agg_master with
        | Some master_expr -> master_expr
        | None -> unsupported "aggregate not decomposed")
     | _ -> Ast.map_children (substitute_master group_keys agg_master) e)

(* group-by contains a bare distribution column of some distributed table *)
let group_by_contains_dist meta sel =
  let dists = List.concat_map (level_dist_tables meta) sel.Ast.from in
  List.exists
    (fun g ->
      match g with
      | Ast.Column (q, c) -> List.exists (column_matches_dist (q, c)) dists
      | _ -> false)
    sel.Ast.group_by

let pushdown_parts meta (sel0 : Ast.select) : Ast.select * Plan.merge =
  let sel = expand_stars meta sel0 in
  let group_keys =
    List.map (fun g -> Engine.Executor.substitute_refs sel.projections g) sel.group_by
  in
  let order_by =
    List.map (fun (e, d) -> (Engine.Executor.substitute_refs sel.projections e, d)) sel.order_by
  in
  let proj_exprs =
    List.map (function Ast.Proj (e, _) -> e | _ -> assert false)
      sel.projections
  in
  let proj_aliases =
    List.map (function Ast.Proj (_, a) -> a | _ -> assert false)
      sel.projections
  in
  let having = sel.having in
  let output_exprs =
    proj_exprs
    @ (match having with Some h -> [ h ] | None -> [])
    @ List.map fst order_by
  in
  let aggs = Ast.collect_aggs output_exprs in
  let grouped = group_keys <> [] || aggs <> [] in
  let dist_grouped = group_by_contains_dist meta sel in
  if sel.distinct && grouped && not dist_grouped then
    unsupported "SELECT DISTINCT with aggregates requires grouping by the \
                 distribution column";
  List.iter
    (fun (a : Ast.agg) ->
      if a.agg_distinct && not dist_grouped then
        unsupported
          "aggregate (DISTINCT ...) is only supported when grouping by the \
           distribution column";
      if not (List.mem a.agg_name [ "count"; "sum"; "avg"; "min"; "max" ]) then
        unsupported "aggregate %s cannot be distributed" a.agg_name)
    aggs;
  if grouped then begin
    (* worker projections: group keys g0.. + partials p<j>_<part> *)
    let key_projs =
      List.mapi
        (fun i g -> Ast.Proj (g, Some (Printf.sprintf "g%d" i)))
        group_keys
    in
    let partials_and_master =
      List.mapi
        (fun j (a : Ast.agg) ->
          let pname suffix = Printf.sprintf "p%d%s" j suffix in
          let col suffix = Ast.Column (None, pname suffix) in
          let agg name arg =
            Ast.Agg { agg_name = name; agg_arg = arg; agg_distinct = false }
          in
          if a.agg_distinct then
            (* shard-local groups are disjoint: ship the final value *)
            ( [ Ast.Proj (Ast.Agg a, Some (pname "")) ],
              (a, agg "max" (Some (col ""))) )
          else
            match a.agg_name with
            | "count" ->
              ( [ Ast.Proj (Ast.Agg a, Some (pname "")) ],
                (a, agg "sum" (Some (col ""))) )
            | "sum" ->
              ( [ Ast.Proj (Ast.Agg a, Some (pname "")) ],
                (a, agg "sum" (Some (col ""))) )
            | "min" ->
              ( [ Ast.Proj (Ast.Agg a, Some (pname "")) ],
                (a, agg "min" (Some (col ""))) )
            | "max" ->
              ( [ Ast.Proj (Ast.Agg a, Some (pname "")) ],
                (a, agg "max" (Some (col ""))) )
            | "avg" ->
              ( [
                  Ast.Proj
                    ( Ast.Agg { a with agg_name = "sum" },
                      Some (pname "_s") );
                  Ast.Proj
                    ( Ast.Agg { a with agg_name = "count" },
                      Some (pname "_c") );
                ],
                ( a,
                  Ast.Bin
                    ( Ast.Div,
                      Ast.Cast (agg "sum" (Some (col "_s")), Datum.TFloat),
                      Ast.Cast (agg "sum" (Some (col "_c")), Datum.TFloat) ) )
              )
            | other -> unsupported "aggregate %s cannot be distributed" other)
        aggs
    in
    let partial_projs = List.concat_map fst partials_and_master in
    let agg_master = List.map snd partials_and_master in
    (* When the GROUP BY contains the distribution column, groups are
       shard-local and per-task aggregates are final — ORDER BY + LIMIT can
       be pushed into the tasks, so each shard ships only its top rows
       (crucial for high-cardinality groupings like TPC-H Q18). *)
    let pushed_order_limit =
      if not dist_grouped then None
      else
        let const_limit e =
          match eval_const e with Some (Datum.Int i) -> Some i | _ -> None
        in
        match sel.limit with
        | None -> None
        | Some l ->
          (match const_limit l, Option.map const_limit sel.offset with
           | Some li, (None | Some (Some _)) ->
             let oi =
               match sel.offset with
               | None -> 0
               | Some o -> Option.value ~default:0 (const_limit o)
             in
             (* map each order expression to a task-side column *)
             let map_order e =
               match List.find_index (fun g -> g = e) group_keys with
               | Some i -> Some (Ast.Column (None, Printf.sprintf "g%d" i))
               | None ->
                 (match e with
                  | Ast.Agg a when not a.Ast.agg_distinct ->
                    (match List.find_index (fun a' -> a' = a) aggs with
                     | Some j when List.mem a.Ast.agg_name [ "count"; "sum"; "min"; "max" ]
                       ->
                       Some (Ast.Column (None, Printf.sprintf "p%d" j))
                     | _ -> None)
                  | _ -> None)
             in
             let mapped =
               List.filter_map
                 (fun (e, d) ->
                   match map_order e with Some m -> Some (m, d) | None -> None)
                 order_by
             in
             (* only push down when every order key mapped *)
             if order_by <> [] && List.compare_lengths mapped order_by = 0
             then Some (mapped, Ast.Const (Datum.Int (li + oi)))
             else None
           | _ -> None)
    in
    let task_select =
      {
        sel with
        distinct = false;
        projections = key_projs @ partial_projs;
        group_by = group_keys;
        having = None;
        order_by =
          (match pushed_order_limit with Some (ob, _) -> ob | None -> []);
        limit =
          (match pushed_order_limit with Some (_, l) -> Some l | None -> None);
        offset = None;
      }
    in
    let sub = substitute_master group_keys agg_master in
    let master_projections =
      List.map2 (fun e a -> Ast.Proj (sub e, a)) proj_exprs proj_aliases
    in
    let master =
      {
        Ast.distinct = sel.distinct;
        projections = master_projections;
        from = [ Ast.Table { name = intermediate_relation; alias = None } ];
        where = None;
        group_by = List.mapi (fun i _ -> Ast.Column (None, Printf.sprintf "g%d" i)) group_keys;
        having = Option.map sub having;
        order_by = List.map (fun (e, d) -> (sub e, d)) order_by;
        limit = sel.limit;
        offset = sel.offset;
      }
    in
    let intermediate_columns =
      List.mapi (fun i _ -> Printf.sprintf "g%d" i) group_keys
      @ List.concat_map
          (fun (projs, _) ->
            List.map
              (function Ast.Proj (_, Some a) -> a | _ -> assert false)
              projs)
          partials_and_master
    in
    (task_select, { Plan.master; intermediate_columns })
  end
  else begin
    (* no aggregation: ship projected rows, re-sort / limit on the master *)
    let col_names = List.mapi (fun i _ -> Printf.sprintf "c%d" i) proj_exprs in
    (* sort keys not already projected get extra columns *)
    let extra_sort =
      List.filteri
        (fun _ (e, _) -> not (List.mem e proj_exprs))
        order_by
    in
    let extra_names =
      List.mapi (fun k _ -> Printf.sprintf "s%d" k) extra_sort
    in
    let task_projs =
      List.map2 (fun e n -> Ast.Proj (e, Some n)) proj_exprs col_names
      @ List.map2 (fun (e, _) n -> Ast.Proj (e, Some n)) extra_sort extra_names
    in
    let pushed_limit =
      match sel.limit, sel.offset with
      | Some l, Some o ->
        (match eval_const l, eval_const o with
         | Some (Datum.Int li), Some (Datum.Int oi) ->
           Some (Ast.Const (Datum.Int (li + oi)))
         | _ -> None)
      | Some l, None -> Some l
      | None, _ -> None
    in
    let subst_order e =
      match List.find_index (fun p -> p = e) proj_exprs with
      | Some i -> Ast.Column (None, List.nth col_names i)
      | None ->
        (match List.find_index (fun (se, _) -> se = e) extra_sort with
         | Some k -> Ast.Column (None, List.nth extra_names k)
         | None -> unsupported "ORDER BY expression not available for merge")
    in
    let task_select =
      {
        sel with
        projections = task_projs;
        order_by;
        limit = pushed_limit;
        offset = None;
      }
    in
    (* keep the user-visible output names: explicit alias, else the
       original column name *)
    let display_aliases =
      List.map2
        (fun e a ->
          match a with
          | Some _ -> a
          | None ->
            (match e with Ast.Column (_, name) -> Some name | _ -> None))
        proj_exprs proj_aliases
    in
    let master =
      {
        Ast.distinct = sel.distinct;
        projections =
          List.map2
            (fun n a -> Ast.Proj (Ast.Column (None, n), a))
            col_names display_aliases;
        from = [ Ast.Table { name = intermediate_relation; alias = None } ];
        where = None;
        group_by = [];
        having = None;
        order_by = List.map (fun (e, d) -> (subst_order e, d)) order_by;
        limit = sel.limit;
        offset = sel.offset;
      }
    in
    (task_select, { Plan.master; intermediate_columns = col_names @ extra_names })
  end


let pushdown_tasks ?only_groups ?node_ok meta task_select names =
  let groups = Metadata.shard_groups ?node_ok meta ~tables:names in
  let groups =
    match only_groups with
    | None -> groups
    | Some keep -> List.filter (fun (gi, _, _) -> List.mem gi keep) groups
  in
  List.map
    (fun (group_index, node, members) ->
      {
        Plan.task_node = node;
        task_stmt =
          rewrite_to_group meta ~group_index (Ast.Select_stmt task_select);
        task_group = group_index;
        task_shard =
          (match members with
           | (_, (s : Metadata.shard)) :: _ -> s.Metadata.shard_id
           | [] -> -1);
      })
    groups

let plan_pushdown_select ?node_ok meta (sel : Ast.select) =
  let names = List.map fst (tables_in_select [] sel) in
  let citus_names =
    List.filter (Metadata.is_citus_table meta) (List.sort_uniq String.compare names)
  in
  if not (Metadata.colocated meta citus_names) then
    unsupported
      "complex joins between non-co-located distributed tables require the \
       join-order planner";
  if dist_tables_of meta citus_names = [] then
    unsupported "no distributed tables in pushdown select";
  validate_pushdown_level meta ~is_top:true sel;
  let task_select, merge = pushdown_parts meta sel in
  let only_groups = pruned_groups meta (Ast.Select_stmt sel) in
  (pushdown_tasks ?only_groups ?node_ok meta task_select citus_names, merge)

(* --- colocated INSERT..SELECT test (§3.8, strategy 1) --- *)

let select_is_colocated_with meta ~dest ~dest_dist_col_position sel =
  match Metadata.find meta dest, dest_dist_col_position with
  | Some { Metadata.kind = Metadata.Distributed; _ }, Some pos ->
    let names = List.map fst (tables_in_select [] sel) in
    let citus_names = List.sort_uniq String.compare names in
    Metadata.colocated meta (dest :: citus_names)
    && (match validate_pushdown_level meta ~is_top:true sel with
        | () -> true
        | exception Unsupported _ -> false)
    && (* the projection feeding the dest distribution column must be a
          source distribution column *)
    (match List.nth_opt sel.projections pos with
     | Some (Ast.Proj (Ast.Column (q, c), _)) ->
       let dists = List.concat_map (level_dist_tables meta) sel.from in
       List.exists (column_matches_dist (q, c)) dists
     | _ -> false)
  | _ -> false

(* --- DML --- *)

(* A write to a reference table is one task; the executor replicates it
   across the reference shard's active placements. *)
let reference_write meta stmt table =
  let shard_id =
    match Metadata.shards_of meta table with
    | s :: _ -> s.Metadata.shard_id
    | [] -> unsupported "reference table %s has no shard" table
  in
  ( Plan.Reference_write
      {
        Plan.task_node = Metadata.placement meta shard_id;
        task_stmt =
          Ast.rename_tables_statement (fun name -> shard_table_name meta name) stmt;
        task_group = -1;
        task_shard = shard_id;
      },
    Tier_reference )

let plan_insert_values meta stmt table columns tuples on_conflict =
  let dt =
    match Metadata.find meta table with
    | Some dt -> dt
    | None -> assert false
  in
  match dt.Metadata.kind with
  | Metadata.Reference -> reference_write meta stmt table
  | Metadata.Distributed ->
    let dist_pos =
      match dist_position dt columns with
      | Some i -> i
      | None ->
        unsupported "INSERT into %s must set the distribution column %s" table
          (Option.value dt.Metadata.dist_column ~default:"")
    in
    (* group rows by target shard *)
    let by_shard = Hashtbl.create 8 in
    List.iter
      (fun tuple ->
        let v =
          match List.nth_opt tuple dist_pos with
          | Some e ->
            (match eval_const e with
             | Some d when not (Datum.is_null d) -> d
             | _ ->
               unsupported
                 "the distribution column value must be a non-null constant")
          | None -> unsupported "row is missing the distribution column"
        in
        let shard = Metadata.shard_for_value meta ~table v in
        let existing =
          Option.value ~default:[]
            (Hashtbl.find_opt by_shard shard.Metadata.shard_id)
        in
        Hashtbl.replace by_shard shard.Metadata.shard_id (tuple :: existing))
      tuples;
    let tasks =
      Hashtbl.fold
        (fun shard_id rows acc ->
          let shard =
            List.find
              (fun (s : Metadata.shard) -> s.shard_id = shard_id)
              (Metadata.shards_of meta table)
          in
          let stmt =
            Ast.Insert
              {
                table = Metadata.shard_name shard;
                columns;
                source = Ast.Values (List.rev rows);
                on_conflict_do_nothing = on_conflict;
              }
          in
          {
            Plan.task_node = Metadata.placement meta shard_id;
            task_stmt = stmt;
            task_group = shard.Metadata.index_in_colocation;
            task_shard = shard_id;
          }
          :: acc)
        by_shard []
    in
    (match tasks with
     | [ t ] -> (Plan.Fast_path t, Tier_fast_path)
     | ts -> (Plan.Multi_shard_dml { tasks = ts }, Tier_dml))

let plan_multi_shard_dml meta stmt table =
  let dt =
    match Metadata.find meta table with
    | Some dt -> dt
    | None -> unsupported "%s is not a Citus table" table
  in
  match dt.Metadata.kind with
  | Metadata.Reference -> reference_write meta stmt table
  | Metadata.Distributed ->
    (* every shard gets the rewritten statement, minus pruned groups *)
    let only_groups = pruned_groups meta stmt in
    let shards =
      match only_groups with
      | None -> Metadata.shards_of meta table
      | Some keep ->
        List.filter
          (fun (s : Metadata.shard) -> List.mem s.index_in_colocation keep)
          (Metadata.shards_of meta table)
    in
    let tasks =
      List.map
        (fun (s : Metadata.shard) ->
          {
            Plan.task_node = Metadata.placement meta s.shard_id;
            task_stmt = rewrite_to_group meta ~group_index:s.index_in_colocation stmt;
            task_group = s.index_in_colocation;
            task_shard = s.shard_id;
          })
        shards
    in
    (Plan.Multi_shard_dml { tasks }, Tier_dml)

(* --- entry point --- *)

(* [analyze_shape] alone decides single-task routing; what it refuses
   goes to the multi-shard tiers. *)
let plan ?node_ok ?catalog:_ meta ~local_name stmt : Plan.t * tier =
  match analyze_shape meta stmt with
  | Some shape ->
    ( single_task ?node_ok meta ~local_name
        ~bind:(unsupported "no value for parameter $%d")
        ~stmt_for:(fun group_index -> rewrite_to_group meta ~group_index stmt)
        shape,
      shape_tier shape )
  | None ->
    (match stmt with
     | Ast.Select_stmt sel ->
       let tasks, merge = plan_pushdown_select ?node_ok meta sel in
       (Plan.Multi_shard_select { tasks; merge }, Tier_pushdown)
     | Ast.Insert { table; columns; source = Ast.Values tuples;
                    on_conflict_do_nothing } ->
       plan_insert_values meta stmt table columns tuples on_conflict_do_nothing
     | Ast.Update { table; sets; _ } ->
       let dt = Metadata.find meta table in
       (match dt with
        | Some { Metadata.dist_column = Some dc; _ }
          when List.mem_assoc dc sets ->
          unsupported "modifying the distribution column is not supported"
        | _ -> ());
       plan_multi_shard_dml meta stmt table
     | Ast.Delete { table; _ } -> plan_multi_shard_dml meta stmt table
     | _ -> unsupported "statement cannot be planned by the distributed planner")
