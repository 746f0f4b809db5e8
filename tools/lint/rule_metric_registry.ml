(** L13 metric-registry: every [Obs.Metrics] name must come from the
    central registry module [Obs.Metric_names], so the set of series a
    cluster can emit — what [citus_stat_counters()] reports — is closed
    and documented in one place.

    The name is always the second positional argument of the [Metrics]
    entry points ([inc], [gauge_add], [gauge_set], [observe],
    [register_probe], [counter_value], [gauge_value]); it passes when it
    is an identifier from [Metric_names] or an application whose head is
    (the registry's family constructors: [net_connect_to],
    [planner_tier], [breaker_transition], …). Anything else — a string
    literal, [^] concatenation, a local helper — is a finding.

    Escape hatch: [[\@lint.metric_adhoc]] on the name expression, for
    genuinely dynamic names that cannot live in a registry, and for a
    family key made once and kept (the plan cache's per-shape
    [plancache.shape_seconds] key, the one site today). *)

let id = "L13"
let name = "metric-registry"

let doc =
  "Obs.Metrics names must be constants or family constructors from \
   Obs.Metric_names (escape hatch: [@lint.metric_adhoc])"

let explain =
  "citus_stat_counters()-style introspection is only trustworthy when \
   the series set is closed: a dashboard or alert keyed on a metric \
   name must be able to enumerate every name the code can emit. \
   Scattered string literals drift — a typo creates a parallel series \
   (\"exec.timeout\" vs \"exec.timeouts\") that silently splits the \
   count. L13 requires the second positional argument of every \
   Obs.Metrics entry point (inc / gauge_add / gauge_set / observe / \
   register_probe / counter_value / gauge_value) to be drawn from \
   Obs.Metric_names: either a constant (Metric_names.exec_tasks) or an \
   application of one of its family constructors \
   (Metric_names.net_connect_to node). Add new series to the registry \
   with a doc comment; the .mli is the catalogue. Escape hatch: \
   [@lint.metric_adhoc] on the name expression, for a truly dynamic \
   name that cannot be registered."

let metric_fns =
  [ "inc"; "gauge_add"; "gauge_set"; "observe"; "register_probe";
    "counter_value"; "gauge_value" ]

let is_metric_call comps =
  match List.rev comps with
  | last :: prev :: _ -> String.equal prev "Metrics" && List.mem last metric_fns
  | _ -> false

(* [Obs.Metric_names.exec_tasks] / [Metric_names.net_connect_to node] *)
let from_registry (e : Parsetree.expression) =
  let rooted comps =
    match List.rev comps with
    | _ :: prev :: _ -> String.equal prev "Metric_names"
    | _ -> false
  in
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident _ -> rooted (Rule.ident_path e)
  | Parsetree.Pexp_apply (head, _) -> rooted (Rule.ident_path head)
  | _ -> false

let escape_hatch = "lint.metric_adhoc"

let applies path =
  Filename.check_suffix path ".ml"
  && Rule.starts_with "lib/" path
  && not (Rule.starts_with "lib/obs/" path)

let check ~path (str : Parsetree.structure) =
  let findings = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
     | Parsetree.Pexp_apply (head, args)
       when is_metric_call (Rule.ident_path head) -> (
       let positional =
         List.filter_map
           (fun (lbl, a) ->
             match lbl with Asttypes.Nolabel -> Some a | _ -> None)
           args
       in
       match positional with
       | _ :: (name_arg : Parsetree.expression) :: _ ->
         if
           (not (from_registry name_arg))
           && (not
                 (Rule.has_attr escape_hatch name_arg.Parsetree.pexp_attributes))
           && not (Rule.has_attr escape_hatch e.Parsetree.pexp_attributes)
         then
           findings :=
             Rule.finding ~id ~file:path ~loc:name_arg.Parsetree.pexp_loc
               (Printf.sprintf
                  "metric name passed to %s is not drawn from \
                   Obs.Metric_names; register the series (or a family \
                   constructor) there so the emitted set stays closed, or \
                   annotate [@lint.metric_adhoc]"
                  (String.concat "." (Rule.ident_path head)))
             :: !findings
       | _ -> ())
     | _ -> ());
    super.Ast_iterator.expr it e
  in
  let it = { super with Ast_iterator.expr } in
  it.Ast_iterator.structure it str;
  List.rev !findings

let check_tree _ = []
let check_program _ = []
