open Sqlfront

type t = {
  cluster : Cluster.Topology.t;
  metadata : Metadata.t;
      (** the cluster's one catalog: every installed node's
          [State.metadata] is this value (MX) *)
  config : State.config;
      (** the cluster's one runtime settings record: every installed
          node's [State.config] is this value *)
  registry : ((string * int), string * int) Hashtbl.t;
  mutable states : State.t list;
  mutable active_data_nodes : string list;
  mutable replication_factor : int;
  procedures : (string, int * string) Hashtbl.t;
  plancache : Plancache.t;
      (** cluster-wide distributed plan cache: shared across every node
          the extension is installed on, validated against the one
          catalog's {!Metadata.version}, so one entry is valid or stale
          everywhere at once *)
}

let err fmt =
  Printf.ksprintf (fun m -> raise (Engine.Instance.Session_error m)) fmt

let coordinator_state t =
  match t.states with
  | st :: _ -> st
  | [] -> err "the Citus extension is not installed anywhere"

(* --- UDF implementations --- *)

(* Turn the local table [table] into a Citus table: [register] its
   definition and shards, create the shards on every placement, move the
   local rows into them and drop the local table — all inside the UDF's
   transaction. Every node then plans from the one definition. *)
let convert_table t st session ~table register =
  if Metadata.is_citus_table t.metadata table then
    err "table %s is already distributed" table;
  let tbl =
    match
      Engine.Catalog.find_table_opt
        (Engine.Instance.catalog (Engine.Instance.session_instance session))
        table
    with
    | Some tbl -> tbl
    | None -> err "relation %s does not exist" table
  in
  let _cols, rows =
    Engine.Executor.run_select
      (Engine.Instance.make_ctx session)
      (Ast.select_from table [ Ast.Star ])
  in
  let def = Ddl.definition_of tbl in
  Ddl.create_shards st session def (register tbl def rows);
  ignore (Dist_executor.insert_rows st session ~table rows);
  (* the TRUNCATE's WAL record fences the moved rows off any later local
     table of the same name at replay; the DROP itself is not logged *)
  List.iter
    (fun stmt -> ignore (Engine.Instance.exec_utility_local session stmt))
    [ Ast.Truncate [ table ];
      Ast.Drop_table { name = table; if_exists = false } ]

let do_create_distributed_table t st session ~table ~column ~colocate_with =
  convert_table t st session ~table (fun tbl def rows ->
      let pos = Engine.Catalog.column_index tbl column in
      (* checked before anything is registered: the catalog is not
         transactional, so a conversion must not fail halfway *)
      if List.exists (fun (row : Datum.t array) -> Datum.is_null row.(pos)) rows
      then err "%s has a NULL in its distribution column %s" table column;
      Metadata.register_distributed t.metadata
        ~replication_factor:t.replication_factor ~table ~column ~def
        ~colocate_with ~nodes:t.active_data_nodes)

let do_create_reference_table t st session ~table =
  let coordinator =
    t.cluster.Cluster.Topology.coordinator.Cluster.Topology.node_name
  in
  convert_table t st session ~table (fun _ def _ ->
      [
        Metadata.register_reference t.metadata ~table ~def
          ~nodes:
            (List.sort_uniq String.compare
               (coordinator :: t.active_data_nodes));
      ])

(* --- the statement route --- *)

(* Bind values into a statement shape, surfacing a missing parameter as
   the typed [Exec.Bind_error] instead of the parser layer's bare
   exception. *)
let bind_shape ~name values stmt =
  try Ast.bind_params values stmt
  with Ast.Unbound_param i ->
    raise (Exec.Bind_failure { stmt_name = name; param = i })

(* Plan-cache skeleton: the shard groups the shape can route to; each
   is rewritten at its first dispatch. *)
let build_entry t ~key ~version ~stmt shape =
  Plancache.make_entry t.plancache ~key ~version ~stmt ~shape
    (Planner.shape_groups t.metadata shape)

(* Bind-time dispatch of a cached skeleton through the planner's own
   single-task router: the routing value picks the shard group and the
   placement is chosen fresh — never cached, so repair and failover need
   no rebuild. The task carries the group's statement with its [$k]
   unbound; the values travel beside it to the worker-side statement
   ({!Plancache.dispatch}), which the worker binds. *)
let cached_plan t (st : State.t) ~name ~values ~shape (entry : Plancache.entry)
    =
  let arity = List.length values in
  (match List.find_opt (fun k -> k > arity) entry.Plancache.e_params with
   | Some k -> raise (Exec.Bind_failure { stmt_name = name; param = k })
   | None -> ());
  let bind k =
    match List.nth_opt values (k - 1), shape with
    | None, _ -> raise (Exec.Bind_failure { stmt_name = name; param = k })
    | Some v, Ast.Insert _ when Datum.is_null v ->
      err "the distribution column value must be a non-null constant"
    | Some v, _ -> v
  in
  let wire = ref None in
  let stmt_for g =
    match
      Plancache.dispatch t.plancache entry g
        ~rewrite:(Planner.rewrite_to_group t.metadata ~group_index:g)
    with
    | Some d ->
      wire := Some d.Plancache.d_wire;
      d.Plancache.d_stmt
    | None ->
      (* group space changed without a version bump: never execute a
         skeleton the catalog has outgrown *)
      raise
        (Metadata.Catalog_error
           (Printf.sprintf "plan cache skeleton of %s has no shard group %d"
              name g))
  in
  let plan =
    Planner.single_task ~node_ok:(State.node_available st) t.metadata
      ~local_name:st.State.local.Cluster.Topology.node_name ~bind ~stmt_for
      entry.Plancache.e_shape
  in
  (plan, Option.map (fun stmt -> { Exec.stmt; values }) !wire)

(* INSERT..SELECT into a Citus table has its own planner (§3.8). *)
let insert_select t st session = function
  | Ast.Insert { table; columns; source = Ast.Query select; on_conflict_do_nothing }
    when Metadata.is_citus_table t.metadata table ->
    Some
      (Insert_select.execute st session ~table ~columns ~select
         ~on_conflict_do_nothing)
  | _ -> None

(* A statement the tiered planner refused: INSERT..SELECT, else the
   logical join-order planner for non-co-located joins. The refused
   attempt's "plan" span closed tierless, so the fallback opens its own
   and counts its tier only once it succeeds. *)
let execute_unplanned t (st : State.t) session stmt ~first_error =
  match insert_select t st session stmt, stmt with
  | Some result, _ -> result
  | None, Ast.Select_stmt sel ->
    (try
       Obs.Trace.with_span (Cluster.Topology.trace t.cluster)
         ~now:(Cluster.Topology.now t.cluster)
         ~node:st.State.local.Cluster.Topology.node_name ~kind:"plan"
         ~tags:[ ("tier", "join_order") ]
         (fun _sp ->
           let result, _decision, _report = Join_order.execute st session sel in
           Obs.Metrics.inc
             (Cluster.Topology.metrics t.cluster)
             Obs.Metric_names.planner_tier_join_order;
           result)
     with Join_order.Unsupported _ -> err "%s" first_error)
  | None, _ -> err "%s" first_error

(* The one route for statements that name a Citus table: shape →
   cached skeleton → bind → dispatch. [shape] is ad-hoc SQL with its
   literals lifted ({!Ast.lift_consts}) or the stored shape of the
   [prepared] statement an EXECUTE names, and [values] bind it. The key
   is the shape's deparse, so ad-hoc SQL and EXECUTE of one shape share
   an entry. A hit binds into the memoized per-group statement, a miss
   builds the skeleton {!Planner.analyze_shape} finds, and an
   uncacheable shape (or a disabled cache) binds and plans per call.
   Lint rule L15 roots its no-reparse reachability check here: the
   statement's one parse is behind it. *)
let route t (st : State.t) session ?prepared shape values =
  let name = Option.value prepared ~default:"<unnamed>" in
  let metrics = Cluster.Topology.metrics t.cluster in
  let now = Cluster.Topology.now t.cluster in
  let inst = st.State.local.Cluster.Topology.instance in
  let local_name = st.State.local.Cluster.Topology.node_name in
  (* the engine charges ad-hoc SQL one routed statement (its parse is
     real) whatever happens here; an EXECUTE meters itself: a hit costs
     a bound execute (bind + hash), a build or a bypass a routed
     statement (planning, the parse already paid at PREPARE) *)
  let charge add = if prepared <> None then add (Engine.Instance.meter inst) in
  (* planner.tier.* counts planner runs — builds and bypasses, not hits *)
  let count_tier tier =
    Obs.Metrics.inc metrics
      (Obs.Metric_names.planner_tier (Planner.tier_slug tier))
  in
  let max_size = t.config.State.plan_cache_size in
  (* an EXECUTE's key is its stored shape's text, deparsed once per
     PREPARE; ad-hoc SQL's comes from the memo of lifted shapes *)
  let key =
    match prepared with
    | Some name -> Engine.Instance.prepared_text session name
    | None -> Plancache.key_of_shape t.plancache ~max_size shape
  in
  let slot = Plancache.slot t.plancache ~key in
  let stat = slot.Plancache.stat in
  stat.Plancache.st_calls <- stat.Plancache.st_calls + 1;
  let t0 = now () in
  let version = Metadata.version t.metadata in
  let cached sp outcome (entry : Plancache.entry) =
    Obs.Trace.add_tag sp "cache" outcome;
    Obs.Trace.add_tag sp "tier"
      (Planner.tier_slug (Planner.shape_tier entry.Plancache.e_shape));
    Ok (cached_plan t st ~name ~values ~shape entry)
  in
  let bypass sp =
    Obs.Metrics.inc metrics Obs.Metric_names.plancache_bypass;
    stat.Plancache.st_bypass <- stat.Plancache.st_bypass + 1;
    charge Engine.Meter.add_routed_statement;
    Obs.Trace.add_tag sp "cache" "bypass";
    let bound = bind_shape ~name values shape in
    (* steer reads away from nodes whose circuit breaker is open —
       planning uses health, not raw reachability, which a real system
       cannot observe *)
    match
      Planner.plan ~node_ok:(State.node_available st) t.metadata ~local_name
        bound
    with
    | plan, tier ->
      count_tier tier;
      Obs.Trace.add_tag sp "tier" (Planner.tier_slug tier);
      Ok (plan, None)
    | exception Planner.Unsupported first_error -> Error (bound, first_error)
  in
  (* one "plan" span per statement, tagged with the cache outcome *)
  let decide sp =
    match
      if max_size <= 0 then Plancache.Miss
      else Plancache.lookup t.plancache slot ~version
    with
    | Plancache.Hit entry ->
      Obs.Metrics.inc metrics Obs.Metric_names.plancache_hits;
      stat.Plancache.st_hits <- stat.Plancache.st_hits + 1;
      charge Engine.Meter.add_bound_execute;
      cached sp "hit" entry
    | (Plancache.Stale | Plancache.Miss) as missed ->
      (match missed with
       | Plancache.Stale ->
         Obs.Metrics.inc metrics Obs.Metric_names.plancache_invalidations
       | _ -> ());
      (match
         if max_size <= 0 then None
         else Planner.analyze_shape t.metadata shape
       with
       | None -> bypass sp
       | Some sh ->
         let tier = Planner.shape_tier sh in
         Obs.Metrics.inc metrics Obs.Metric_names.plancache_misses;
         count_tier tier;
         stat.Plancache.st_builds <- stat.Plancache.st_builds + 1;
         stat.Plancache.st_tier <- Planner.tier_slug tier;
         charge Engine.Meter.add_routed_statement;
         let entry = build_entry t ~key ~version ~stmt:shape sh in
         let evicted = Plancache.store t.plancache ~max_size slot entry in
         if evicted > 0 then
           Obs.Metrics.inc ~by:evicted metrics
             Obs.Metric_names.plancache_evictions;
         Obs.Metrics.gauge_set metrics Obs.Metric_names.plancache_entries
           (float_of_int (Plancache.size t.plancache));
         cached sp "build" entry)
  in
  let result =
    match
      Obs.Trace.with_span (Cluster.Topology.trace t.cluster) ~now
        ~node:local_name ~kind:"plan" decide
    with
    | Ok (plan, bound) -> fst (Dist_executor.execute ?bound st session plan)
    | Error (bound, first_error) ->
      execute_unplanned t st session bound ~first_error
  in
  (* histograms keep every observation, so only EXECUTEs are timed:
     ad-hoc statements are counted in [stat] but add no samples *)
  if prepared <> None then begin
    let dt = now () -. t0 in
    Obs.Metrics.observe metrics Obs.Metric_names.plancache_exec_seconds dt;
    (* the family's key, interned once with the shape's stat *)
    Obs.Metrics.observe metrics
      (stat.Plancache.st_seconds [@lint.metric_adhoc])
      dt
  end;
  result

(* --- planner hook --- *)

let delegate_call (t : t) (st : State.t) session proc args =
  match Hashtbl.find_opt t.procedures proc with
  | None -> None
  | Some (arg_position, table) ->
    let values =
      List.map (Engine.Executor.eval_const (Engine.Instance.make_ctx session)) args
    in
    (match List.nth_opt values (arg_position - 1) with
     | None -> err "CALL %s: no argument %d" proc arg_position
     | Some v ->
       let shard = Metadata.shard_for_value t.metadata ~table v in
       let node = Metadata.placement t.metadata shard.Metadata.shard_id in
       if String.equal node st.State.local.Cluster.Topology.node_name then
         None (* local: run the procedure here *)
       else begin
         let conn =
           State.pooled_connection st (State.session_state st session) node
         in
         let stmt = Ast.Call { proc; args } in
         Some (Exec.ast_on_conn_exn st conn stmt)
       end)

(* Whether [planner_hook] may take [stmt] for some values of its [$k]:
   an EXECUTE or a CALL, or a statement naming a Citus table. *)
let hook_claims (t : t) = function
  | Ast.Execute_stmt _ | Ast.Call _ -> true
  | stmt -> Planner.names_citus_table t.metadata stmt

(* CALL delegation, statements naming no Citus table and INSERT..SELECT
   are settled first — so worker-side shard statements pay nothing for
   the cache — then everything else takes the one route: an EXECUTE
   with its stored shape, ad-hoc SQL with its literals lifted. *)
let rec planner_hook (t : t) (st : State.t) session (stmt : Ast.statement) :
    Engine.Instance.result option =
  (* infrastructure failures arrive as typed [Exec.exec_error]s and fail
     the statement cleanly, so the session aborts/retries like on any
     other error *)
  let routed f =
    match Exec.wrap f with
    | Ok result -> Some result
    | Error e -> err "%s" (Exec.error_message e)
    | exception Planner.Unsupported m -> err "%s" m
  in
  match stmt with
  | Ast.Execute_stmt { ename; eargs } ->
    let shape, values =
      Engine.Instance.resolve_execute session ~name:ename ~args:eargs
    in
    (match shape with
     | Ast.Call _ ->
       (* distributed procedures reference no table: delegation inspects
          the bound CALL; a plain local procedure falls through to the
          engine *)
       (match Exec.wrap (fun () -> bind_shape ~name:ename values shape) with
        | Ok bound -> planner_hook t st session bound
        | Error e -> err "%s" (Exec.error_message e))
     | _ when not (Planner.names_citus_table t.metadata shape) ->
       None (* local statement: the engine binds and executes *)
     | _ -> routed (fun () -> route t st session ~prepared:ename shape values))
  | Ast.Call { proc; args } -> delegate_call t st session proc args
  | _ when not (hook_claims t stmt) -> None
  | _ ->
    routed (fun () ->
        match insert_select t st session stmt with
        | Some result -> result
        | None ->
          let shape, values = Ast.lift_consts stmt in
          route t st session shape values)

(* --- extension installation --- *)

let create_distributed_function t ~proc ~arg_position ~table =
  Hashtbl.replace t.procedures proc (arg_position, table)

let set_replication_factor t n =
  if n < 1 then err "replication factor must be >= 1";
  t.replication_factor <- n;
  (* future registrations place differently: cached plans revalidate *)
  Metadata.bump_version t.metadata

let rec install_on_node t (node : Cluster.Topology.node) =
  let node_name = node.Cluster.Topology.node_name in
  (* every node plans against the cluster's one catalog (MX) *)
  let st =
    State.create ~cluster:t.cluster ~metadata:t.metadata ~config:t.config
      ~local:node ~registry:t.registry
  in
  t.states <- t.states @ [ st ];
  let inst = node.Cluster.Topology.instance in
  Twopc.ensure_commit_records_table st;
  (* fault-plan observers: when a remote node crashes its pooled
     connections are dead; when *this* node crashes, workers abort the
     transactions whose client just vanished and all session state dies *)
  (match Cluster.Topology.fault t.cluster with
   | None -> ()
   | Some f ->
     Sim.Fault.on_crash f (fun crashed ->
         if String.equal crashed node.Cluster.Topology.node_name then
           State.crash_local_sessions st
         else State.purge_node_conns st crashed));
  Engine.Instance.set_planner_hook inst ~claims:(hook_claims t) (fun session stmt ->
      planner_hook t st session stmt);
  Engine.Instance.set_utility_hook inst (fun session stmt ->
      Ddl.utility_hook st session stmt);
  Engine.Instance.set_copy_hook inst (fun session ~table ~columns lines ->
      Copy_scaling.copy_hook st session ~table ~columns lines);
  Engine.Instance.on_pre_commit inst (fun session -> Twopc.pre_commit st session);
  Engine.Instance.on_post_commit inst (fun session ->
      Twopc.post_commit st session);
  Engine.Instance.on_abort inst (fun session -> Twopc.on_abort st session);
  Engine.Instance.add_maintenance inst (fun _ -> ignore (Twopc.recover st));
  (* coordinator duties, gated on the node's {e current} role so a
     worker promoted by metadata sync picks them up on its next tick:
     deadlock detection merges every node's wait edges into one global
     graph (concurrent coordinators each run the same merged check — the
     first to see a cycle cancels the victim, later rounds find the
     graph already broken), and placement repair self-heals Inactive
     placements from healthy replicas *)
  Engine.Instance.add_maintenance inst (fun _ ->
      if node.Cluster.Topology.role = Cluster.Topology.Coordinator then
        ignore (Deadlock.detect_and_cancel st));
  Engine.Instance.add_maintenance inst (fun _ ->
      if node.Cluster.Topology.role = Cluster.Topology.Coordinator then
        ignore (Rebalancer.repair_inactive st));
  (* UDFs — all declared through the typed signature combinators in
     {!Udf}; each usage error is rendered from the signature itself. *)
  Udf.register inst "create_distributed_table"
    Udf.(
      text "table" @-> text "column" @-> text "colocate_with"
      @?-> returning nothing)
    (fun session table column colocate_with () ->
      do_create_distributed_table t st session ~table ~column ~colocate_with);
  Udf.register inst "create_reference_table"
    Udf.(text "table" @-> returning nothing)
    (fun session table () -> do_create_reference_table t st session ~table);
  Udf.register inst "create_distributed_function"
    Udf.(
      text "proc" @-> int "arg_position" @-> text "table"
      @-> returning nothing)
    (fun _session proc arg_position table () ->
      create_distributed_function t ~proc ~arg_position ~table);
  Udf.register inst "isolate_tenant_to_new_shard"
    Udf.(text "table" @-> value "tenant" @-> returning int_or_null)
    (fun _session table value () ->
      match Tenant.isolate_tenant st ~table ~value with
      | id :: _ -> Some id
      | [] -> None);
  Udf.register inst "citus_create_restore_point"
    Udf.(text "name" @-> returning nothing)
    (fun _session name () -> Backup.create_restore_point st name);
  Udf.register inst "citus_shards"
    Udf.(returning rows)
    (fun _session () ->
      (* introspection: the pg_dist metadata as a JSON document *)
      let shards =
        List.concat_map
          (fun (dt : Metadata.dist_table) ->
            List.map
              (fun (sh : Metadata.shard) ->
                Json.Obj
                  [
                    ("shard", Json.Str (Metadata.shard_name sh));
                    ("table", Json.Str sh.Metadata.shard_of);
                    ("min_hash", Json.Num (Int32.to_float sh.Metadata.min_hash));
                    ("max_hash", Json.Num (Int32.to_float sh.Metadata.max_hash));
                    ( "nodes",
                      Json.Arr
                        (List.map
                           (fun n -> Json.Str n)
                           (Metadata.placements t.metadata sh.Metadata.shard_id))
                    );
                  ])
              (Metadata.shards_of t.metadata dt.Metadata.dt_name))
          (Metadata.all_tables t.metadata)
      in
      Json.Arr shards);
  Udf.register inst "citus_tables"
    Udf.(returning rows)
    (fun _session () ->
      let tables =
        List.map
          (fun (dt : Metadata.dist_table) ->
            Json.Obj
              [
                ("table", Json.Str dt.Metadata.dt_name);
                ( "kind",
                  Json.Str
                    (match dt.Metadata.kind with
                     | Metadata.Distributed -> "distributed"
                     | Metadata.Reference -> "reference") );
                ( "distribution_column",
                  match dt.Metadata.dist_column with
                  | Some c -> Json.Str c
                  | None -> Json.Null );
                ("colocation_id", Json.Num (float_of_int dt.Metadata.colocation_id));
                ( "shard_count",
                  Json.Num
                    (float_of_int
                       (List.length (Metadata.shards_of t.metadata dt.Metadata.dt_name)))
                );
              ])
          (Metadata.all_tables t.metadata)
      in
      Json.Arr tables);
  Udf.register inst "citus_explain"
    Udf.(text "query" @-> text "mode" @?-> returning text_result)
    (fun _session q mode () ->
      match mode with
      | None | Some "plan" -> Explain.explain st q
      | Some "analyze" -> Explain.explain_analyze st q
      | Some other ->
        err "citus_explain: unknown mode '%s' (expected 'plan' or 'analyze')"
          other);
  Udf.register inst "rebalance_table_shards"
    Udf.(returning int_result)
    (fun _session () -> List.length (Rebalancer.rebalance st));
  Udf.register inst "citus_move_shard_placement"
    Udf.(int "shard_id" @-> text "to_node" @-> returning nothing)
    (fun _session shard_id to_node () ->
      ignore (Rebalancer.move_shard_group st ~shard_id ~to_node));
  Udf.register inst "citus_set_replication_factor"
    Udf.(int "factor" @-> returning nothing)
    (fun _session n () -> set_replication_factor t n);
  Udf.register inst "citus_enable_metadata_sync"
    Udf.(returning text_result)
    (fun _session () ->
      enable_metadata_sync t;
      Printf.sprintf "metadata synced to %d nodes"
        (List.length (Cluster.Topology.data_nodes t.cluster)));
  (* the engine has no SET/GUC machinery, so runtime knobs flow through
     a UDF instead; every installed node shares the one settings record
     (MX: a knob set anywhere applies cluster-wide, like a synced ALTER
     SYSTEM) *)
  Udf.register inst "citus_set_config"
    Udf.(text "name" @-> text "value" @-> returning text_result)
    (fun _session name value () ->
      if String.equal name "enable_metadata_sync" then begin
        (* not a State.config field: flipping it on installs
           the extension on the workers and promotes them, cluster-wide
           by nature *)
        (match String.lowercase_ascii value with
         | "on" | "true" | "1" -> enable_metadata_sync t
         | "off" | "false" | "0" ->
           err
             "citus_set_config: metadata sync cannot be disabled — workers \
              already plan and coordinate transactions"
         | _ ->
           err "citus_set_config: enable_metadata_sync expects on|off, got '%s'"
             value);
        Printf.sprintf "%s = %s" name value
      end
      else
      let knob parse ok expects set =
        match parse value with
        | Some v when ok v -> set v
        | _ -> err "citus_set_config: %s expects %s, got '%s'" name expects value
      in
      let seconds =
        knob float_of_string_opt (fun v -> v >= 0.0) "a non-negative number"
      in
      let count = knob int_of_string_opt (fun v -> v > 0) "a positive integer" in
      let cfg = t.config in
      (match name with
       | "statement_timeout" -> seconds (fun v -> cfg.State.statement_timeout <- v)
       | "hedge_threshold" -> seconds (fun v -> cfg.State.hedge_threshold <- v)
       | "slow_start_interval" -> seconds (fun v -> cfg.State.slow_start_interval <- v)
       | "move_timeout" -> seconds (fun v -> cfg.State.move_timeout <- v)
       | "pool_size_per_node" -> count (fun v -> cfg.State.pool_size_per_node <- v)
       | "shared_connection_limit" ->
         count (fun v -> cfg.State.shared_connection_limit <- v)
       | "max_parallel_moves" -> count (fun v -> cfg.State.max_parallel_moves <- v)
       | "consistency" ->
         knob State.consistency_of_string (fun _ -> true)
           "eventual|read_your_writes|snapshot"
           (fun c -> cfg.State.consistency <- c)
       | "plan_cache_size" ->
         (* 0 disables the cache *)
         knob int_of_string_opt (fun v -> v >= 0) "a non-negative integer"
           (fun v -> cfg.State.plan_cache_size <- v)
       | other -> err "citus_set_config: unknown setting '%s'" other);
      Printf.sprintf "%s = %s" name value);
  Udf.register inst "citus_health_report"
    Udf.(returning rows)
    (fun _session () ->
      let nodes =
        List.map
          (fun (r : Health.node_report) ->
            Json.Obj
              [
                ("node", Json.Str r.Health.nr_node);
                ("breaker", Json.Str (Health.breaker_name r.Health.nr_breaker));
                ("failures", Json.Num (float_of_int r.Health.nr_failures));
                ("successes", Json.Num (float_of_int r.Health.nr_successes));
                ( "failed_commits",
                  Json.Num (float_of_int r.Health.nr_failed_commits) );
                ( "ignored_errors",
                  Json.Num (float_of_int r.Health.nr_ignored_errors) );
              ])
          (Health.report st.State.health)
      in
      let inactive =
        List.map
          (fun ((sh : Metadata.shard), node) ->
            Json.Obj
              [
                ("shard", Json.Str (Metadata.shard_name sh));
                ("node", Json.Str node);
              ])
          (Metadata.inactive_placements t.metadata)
      in
      Json.Obj
        [
          ("nodes", Json.Arr nodes);
          ("inactive_placements", Json.Arr inactive);
        ]);
  Udf.register inst "citus_add_node"
    Udf.(text "name" @-> returning nothing)
    (fun _session name () ->
      ignore (Cluster.Topology.find_node t.cluster name);
      if not (List.mem name t.active_data_nodes) then begin
        (* replicate reference tables to the new node first: the repair
           copy, recording the new placement at its cutover. A shard
           already placed there (an earlier attempt that failed part way)
           is skipped, and the node takes new shards only once every
           reference table is on it. *)
        List.iter
          (fun (dt : Metadata.dist_table) ->
            if dt.Metadata.kind = Metadata.Reference then
              List.iter
                (fun (shard : Metadata.shard) ->
                  let shard_id = shard.Metadata.shard_id in
                  if
                    Metadata.placement_state_of t.metadata ~shard_id ~node:name
                    = None
                  then
                    ignore
                      (Rebalancer.copy_shard_to st shard
                         ~from_node:(Metadata.placement t.metadata shard_id)
                         ~to_node:name ~drop_source:false
                         ~finish_metadata:(fun () ->
                           Metadata.add_placement t.metadata ~shard_id
                             ~node:name)
                         ()))
                (Metadata.shards_of t.metadata dt.Metadata.dt_name))
          (Metadata.all_tables t.metadata);
        t.active_data_nodes <- t.active_data_nodes @ [ name ]
      end);
  (* observability surface *)
  Udf.register inst "citus_set_tracing"
    Udf.(text "mode" @-> returning nothing)
    (fun _session mode () ->
      match mode with
      | "on" -> Obs.Trace.set_enabled (Cluster.Topology.trace t.cluster) true
      | "off" -> Obs.Trace.set_enabled (Cluster.Topology.trace t.cluster) false
      | other -> err "citus_set_tracing: unknown mode '%s' (expected 'on' or 'off')" other);
  Udf.register inst "citus_stat_activity"
    Udf.(returning rows)
    (fun _session () ->
      (* what the whole cluster is doing right now: the open spans of
         every node, outermost first (includes the statement span of
         this very call when tracing is on). The view answers
         identically from any metadata-synced node — the trace sink is
         cluster-wide — and each row is tagged with the coordinator
         that opened the span (fragments and 2PC phases span on their
         coordinating node). *)
      let trace = Cluster.Topology.trace t.cluster in
      let spans =
        List.map
          (fun (sp : Obs.Trace.span) ->
            Json.Obj
              [
                ("id", Json.Num (float_of_int sp.Obs.Trace.id));
                ("kind", Json.Str sp.Obs.Trace.kind);
                ("node", Json.Str sp.Obs.Trace.node);
                ("coordinator", Json.Str sp.Obs.Trace.node);
                ("start", Json.Num sp.Obs.Trace.start);
                ( "tags",
                  Json.Obj
                    (List.map
                       (fun (k, v) -> (k, Json.Str v))
                       (List.sort compare sp.Obs.Trace.tags)) );
              ])
          (Obs.Trace.open_spans trace)
      in
      Json.Obj
        [
          ("origin", Json.Str node_name);
          ( "coordinators",
            Json.Arr
              (List.map
                 (fun (n : Cluster.Topology.node) ->
                   Json.Str n.Cluster.Topology.node_name)
                 (Cluster.Topology.coordinators t.cluster)) );
          ("tracing_enabled", Json.Bool (Obs.Trace.enabled trace));
          ("spans_started", Json.Num (float_of_int (Obs.Trace.started trace)));
          ("spans_finished", Json.Num (float_of_int (Obs.Trace.finished trace)));
          ("active", Json.Arr spans);
        ]);
  Udf.register inst "citus_stat_counters"
    Udf.(returning rows)
    (fun _session () ->
      (* cluster-wide aggregation: the metrics registry folds every
         node's series, so the same totals answer from any coordinator;
         [origin] records which one served this call *)
      let snap = Obs.Metrics.snapshot (Cluster.Topology.metrics t.cluster) in
      Json.Obj
        [
          ("origin", Json.Str node_name);
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Num (float_of_int v)))
                 snap.Obs.Metrics.s_counters) );
          ( "gauges",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Num v)) snap.Obs.Metrics.s_gauges)
          );
          ( "histograms",
            Json.Obj
              (List.map
                 (fun (k, (h : Obs.Metrics.hist_summary)) ->
                   ( k,
                     Json.Obj
                       [
                         ("count", Json.Num (float_of_int h.Obs.Metrics.count));
                         ("sum", Json.Num h.Obs.Metrics.sum);
                         ("p50", Json.Num h.Obs.Metrics.p50);
                         ("p95", Json.Num h.Obs.Metrics.p95);
                         ("max", Json.Num h.Obs.Metrics.max);
                       ] ))
                 snap.Obs.Metrics.s_histograms) );
        ]);
  Udf.register inst "citus_stat_statements"
    Udf.(returning rows)
    (fun _session () ->
      (* per-shape prepared-statement accounting: calls, cache traffic
         and timing (from the plancache.shape_seconds.* histograms),
         sorted by shape text so the output is deterministic *)
      let snap = Obs.Metrics.snapshot (Cluster.Topology.metrics t.cluster) in
      let rows =
        List.map
          (fun (key, (s : Plancache.stat)) ->
            let mean, p95 =
              match
                List.assoc_opt
                  (Obs.Metrics.key_name s.Plancache.st_seconds)
                  snap.Obs.Metrics.s_histograms
              with
              | Some h when h.Obs.Metrics.count > 0 ->
                ( h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count,
                  h.Obs.Metrics.p95 )
              | _ -> (0.0, 0.0)
            in
            Json.Obj
              [
                ("query", Json.Str key);
                ("fingerprint", Json.Str s.Plancache.st_fingerprint);
                ("tier", Json.Str s.Plancache.st_tier);
                ("calls", Json.Num (float_of_int s.Plancache.st_calls));
                ("cache_hits", Json.Num (float_of_int s.Plancache.st_hits));
                ("cache_misses", Json.Num (float_of_int s.Plancache.st_builds));
                ("bypass", Json.Num (float_of_int s.Plancache.st_bypass));
                ("mean_exec_seconds", Json.Num mean);
                ("p95_exec_seconds", Json.Num p95);
              ])
          (Plancache.stats t.plancache)
      in
      Json.Arr rows)

and enable_metadata_sync t =
  List.iter
    (fun (node : Cluster.Topology.node) ->
      let installed =
        List.exists
          (fun (st : State.t) ->
            String.equal st.State.local.Cluster.Topology.node_name
              node.Cluster.Topology.node_name)
          t.states
      in
      if not installed then install_on_node t node;
      (* promote: a metadata-synced node plans and coordinates like the
         bootstrap coordinator — including running the coordinator-only
         maintenance passes (deadlock detection, placement repair),
         which are gated on the role at tick time *)
      Cluster.Topology.set_role node Cluster.Topology.Coordinator)
    (Cluster.Topology.data_nodes t.cluster)

let install ?(shard_count = 32) ?active_workers cluster =
  let metadata = Metadata.create ~shard_count () in
  let data =
    List.map
      (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
      (Cluster.Topology.data_nodes cluster)
  in
  let active =
    match active_workers with
    | Some n -> List.filteri (fun i _ -> i < n) data
    | None -> data
  in
  let t =
    {
      cluster;
      metadata;
      config = State.default_config ();
      registry = Hashtbl.create 64;
      states = [];
      active_data_nodes = active;
      replication_factor = 1;
      procedures = Hashtbl.create 8;
      plancache = Plancache.create ();
    }
  in
  install_on_node t cluster.Cluster.Topology.coordinator;
  t

let connect t =
  Engine.Instance.connect
    t.cluster.Cluster.Topology.coordinator.Cluster.Topology.instance

let connect_via _t (node : Cluster.Topology.node) =
  Engine.Instance.connect node.Cluster.Topology.instance

(* Every node runs its own daemon, as every PostgreSQL server runs
   autovacuum; a crashed node runs none until it restarts. *)
let maintenance t =
  List.iter
    (fun (n : Cluster.Topology.node) ->
      if Cluster.Topology.node_up t.cluster n.Cluster.Topology.node_name then
        Engine.Instance.maintenance_tick n.Cluster.Topology.instance)
    (Cluster.Topology.all_nodes t.cluster)

let create_distributed_table t ~table ~column ?colocate_with () =
  let session = connect t in
  let sql =
    match colocate_with with
    | None ->
      Printf.sprintf "SELECT create_distributed_table('%s', '%s')" table column
    | Some other ->
      Printf.sprintf "SELECT create_distributed_table('%s', '%s', '%s')" table
        column other
  in
  ignore (Engine.Instance.exec session sql)

let create_reference_table t ~table =
  let session = connect t in
  ignore
    (Engine.Instance.exec session
       (Printf.sprintf "SELECT create_reference_table('%s')" table))

(* A retry loop giving up on a lock conflict abandons its wait: remove
   the pending lock-wait registrations of the session's transaction —
   locally and on every worker its distributed transaction reached — so
   the deadlock detector never chases a waiter that has already left. *)
let cancel_lock_waits t session =
  (match Engine.Instance.current_xid session with
   | Some xid ->
     let mgr =
       Engine.Instance.txn_manager (Engine.Instance.session_instance session)
     in
     Txn.Lock.cancel_wait (Txn.Manager.locks mgr) ~owner:xid
   | None -> ());
  let st = coordinator_state t in
  let sst = State.session_state st session in
  List.iter
    (fun (node, wxid) ->
      let n = Cluster.Topology.find_node t.cluster node in
      let mgr = Engine.Instance.txn_manager n.Cluster.Topology.instance in
      Txn.Lock.cancel_wait (Txn.Manager.locks mgr) ~owner:wxid)
    sst.State.dist_xids

(* Retry a statement that hits lock conflicts, running the maintenance
   daemon between attempts so the deadlock detector can break cycles, and
   waiting a deterministic interval on the simulated clock (a threaded
   client would block on the lock instead). The interval carries a
   bounded, seeded jitter draw (up to +50%) so retriers contending for
   one lock spread out instead of re-colliding in lockstep — still
   bit-reproducible per topology seed. The loop is bounded: after
   [attempts] tries the conflict propagates, with the abandoned lock
   waits withdrawn first. Returns the number of attempts consumed
   alongside the result. *)
let exec_with_retries_report t session ?(attempts = 20) sql =
  let attempts = max 1 attempts in
  let rec go n =
    match Engine.Instance.exec session sql with
    | r -> (r, attempts - n + 1)
    | exception (Engine.Executor.Would_block _ as e) ->
      if n > 1 then begin
        maintenance t;
        Sim.Clock.advance t.cluster.Cluster.Topology.clock
          (0.05 *. (1.0 +. (0.5 *. Cluster.Topology.retry_jitter t.cluster)));
        go (n - 1)
      end
      else begin
        cancel_lock_waits t session;
        raise e
      end
  in
  go attempts

let exec_with_retries t session ?attempts sql =
  fst (exec_with_retries_report t session ?attempts sql)
