(* Observability layer: span tree shapes for each planner tier, counter
   monotonicity, snapshot determinism across same-seed runs, the
   disabled sink's zero overhead, and the typed-UDF usage errors. *)

let exec s sql = Engine.Instance.exec s sql

let make ?(workers = 2) () =
  let cluster = Cluster.Topology.create ~workers () in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  let s = Citus.Api.connect citus in
  (cluster, citus, s)

let setup_items s =
  ignore (exec s "CREATE TABLE items (key bigint PRIMARY KEY, qty bigint, val bigint)");
  ignore (exec s "SELECT create_distributed_table('items', 'key')");
  ignore (exec s "BEGIN");
  for k = 1 to 20 do
    ignore
      (exec s
         (Printf.sprintf
            "INSERT INTO items (key, qty, val) VALUES (%d, %d, %d)" k (k mod 5)
            (k * 10)))
  done;
  ignore (exec s "COMMIT")

(* lineitem by order_key, part by part_key: joining them on part_key is
   non-co-located and lands in the join-order fallback *)
let setup_warehouse s =
  ignore (exec s "CREATE TABLE lineitem (order_key bigint, part_key bigint, qty bigint)");
  ignore (exec s "SELECT create_distributed_table('lineitem', 'order_key')");
  ignore (exec s "CREATE TABLE part (part_key bigint, name text, size bigint)");
  ignore (exec s "SELECT create_distributed_table('part', 'part_key')");
  for o = 1 to 10 do
    ignore
      (exec s
         (Printf.sprintf
            "INSERT INTO lineitem (order_key, part_key, qty) VALUES (%d, %d, 1)"
            o ((o mod 5) + 1)))
  done;
  for p = 1 to 5 do
    ignore
      (exec s
         (Printf.sprintf
            "INSERT INTO part (part_key, name, size) VALUES (%d, 'p%d', %d)" p p
            (p mod 3)))
  done

(* run [f] with the sink enabled, return the spans it produced *)
let traced cluster f =
  let trace = Cluster.Topology.trace cluster in
  let was = Obs.Trace.enabled trace in
  Obs.Trace.set_enabled trace true;
  let mark = Obs.Trace.mark trace in
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled trace was)
    (fun () -> f ());
  Obs.Trace.spans_since trace mark

let spans_of_kind kind spans =
  List.filter (fun (sp : Obs.Trace.span) -> String.equal sp.Obs.Trace.kind kind) spans

let tier_tags spans =
  List.filter_map
    (fun (sp : Obs.Trace.span) -> List.assoc_opt "tier" sp.Obs.Trace.tags)
    (spans_of_kind "plan" spans)

(* --- span tree shape per planner tier --- *)

let check_tier ~msg cluster s sql expected_tier =
  let spans = traced cluster (fun () -> ignore (exec s sql)) in
  (* exactly one root, and it is the coordinator's statement span;
     worker-side shard statements nest beneath it *)
  let roots =
    List.filter
      (fun (sp : Obs.Trace.span) ->
        match sp.Obs.Trace.parent with
        | None -> true
        | Some p ->
          not (List.exists (fun (q : Obs.Trace.span) -> q.Obs.Trace.id = p) spans))
      spans
  in
  (match roots with
   | [ root ] ->
     Alcotest.(check string)
       (msg ^ ": root is a statement span")
       "statement" root.Obs.Trace.kind;
     Alcotest.(check string)
       (msg ^ ": root runs on the coordinator")
       "coordinator" root.Obs.Trace.node
   | other ->
     Alcotest.failf "%s: expected 1 root span, got %d" msg (List.length other));
  Alcotest.(check bool)
    (msg ^ ": plan span tagged " ^ expected_tier)
    true
    (List.mem expected_tier (tier_tags spans));
  (* every span closed with a non-negative duration *)
  List.iter
    (fun (sp : Obs.Trace.span) ->
      Alcotest.(check bool) (msg ^ ": span closed") true sp.Obs.Trace.closed;
      Alcotest.(check bool)
        (msg ^ ": duration >= 0")
        true
        (sp.Obs.Trace.duration >= 0.0))
    spans;
  spans

let test_fast_path_and_router_spans () =
  let cluster, _citus, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE dims (id bigint, name text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (check_tier ~msg:"fast path" cluster s
            "SELECT * FROM items WHERE key = 5" "fast_path");
  ignore
    (check_tier ~msg:"router" cluster s
       "SELECT items.val, dims.name FROM items JOIN dims ON items.qty = dims.id \
        WHERE items.key = 3"
       "router")

let test_pushdown_spans () =
  let cluster, _citus, s = make () in
  setup_items s;
  let spans =
    check_tier ~msg:"pushdown" cluster s "SELECT count(*) FROM items" "pushdown"
  in
  (* multi-shard: per-fragment spans, tagged with their shard group *)
  let fragments = spans_of_kind "fragment" spans in
  Alcotest.(check bool)
    "pushdown produced fragment spans" true
    (List.length fragments > 1);
  List.iter
    (fun (sp : Obs.Trace.span) ->
      Alcotest.(check bool) "fragment tagged with shard" true
        (List.mem_assoc "shard" sp.Obs.Trace.tags))
    fragments

let test_join_order_spans () =
  let cluster, _citus, s = make () in
  setup_warehouse s;
  let spans =
    check_tier ~msg:"join order" cluster s
      "SELECT count(*) FROM lineitem JOIN part ON lineitem.part_key = part.part_key"
      "join_order"
  in
  (* the tiered planner's aborted attempt also left a (tierless) plan
     span: the tree records that the fallback happened *)
  Alcotest.(check bool) "two plan spans (attempt + fallback)" true
    (List.length (spans_of_kind "plan" spans) >= 2)

(* --- citus_explain(query, 'analyze') --- *)

let explain_analyze s sql =
  match
    (exec s
       (Printf.sprintf "SELECT citus_explain('%s', 'analyze')" sql))
      .Engine.Instance.rows
  with
  | [ [| Datum.Text t |] ] -> t
  | _ -> Alcotest.fail "citus_explain(_, 'analyze') must return one text row"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_explain_analyze_all_tiers () =
  let cluster, _citus, s = make () in
  setup_items s;
  setup_warehouse s;
  ignore (exec s "CREATE TABLE dims (id bigint, name text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  let cases =
    [
      ("fast_path", "SELECT * FROM items WHERE key = 5");
      ( "router",
        "SELECT items.val, dims.name FROM items JOIN dims ON items.qty = \
         dims.id WHERE items.key = 3" );
      ("pushdown", "SELECT count(*) FROM items");
      ( "join_order",
        "SELECT count(*) FROM lineitem JOIN part ON lineitem.part_key = \
         part.part_key" );
    ]
  in
  List.iter
    (fun (tier, sql) ->
      let out = explain_analyze s sql in
      Alcotest.(check bool)
        (Printf.sprintf "analyze output names tier %s" tier)
        true
        (contains ~needle:("tier=" ^ tier) out);
      Alcotest.(check bool)
        (Printf.sprintf "%s: per-span timings present" tier)
        true
        (contains ~needle:"dur=" out))
    cases;
  (* the sink is restored to disabled afterwards *)
  Alcotest.(check bool) "tracing restored off" false
    (Obs.Trace.enabled (Cluster.Topology.trace cluster));
  (* plan-only form still works *)
  (match
     (exec s "SELECT citus_explain('SELECT count(*) FROM items')")
       .Engine.Instance.rows
   with
   | [ [| Datum.Text t |] ] ->
     Alcotest.(check bool) "plan-only explain unchanged" true
       (contains ~needle:"logical pushdown" t)
   | _ -> Alcotest.fail "citus_explain(query) must return one text row")

(* two same-seed runs produce bit-identical span trees *)
let test_explain_analyze_deterministic () =
  let run () =
    let _cluster, _citus, s = make () in
    setup_items s;
    explain_analyze s "SELECT count(*) FROM items"
  in
  Alcotest.(check string) "bit-identical analyze output" (run ()) (run ())

(* On a metadata-synced worker the scatter's tasks on the worker's own
   shards run locally and keep their fragment spans, tagged local: one
   fragment per task, every span that started finished. *)
let test_explain_analyze_local_fragments () =
  let cluster, citus, s = make () in
  setup_items s;
  Citus.Api.enable_metadata_sync citus;
  let worker = Cluster.Topology.find_node cluster "worker1" in
  let ws = Citus.Api.connect_via citus worker in
  let trace = Cluster.Topology.trace cluster in
  let lines =
    String.split_on_char '\n' (explain_analyze ws "SELECT count(*) FROM items")
  in
  let fragments =
    List.filter (contains ~needle:"fragment on ") lines
  in
  let meta = citus.Citus.Api.metadata in
  let shards = Citus.Metadata.shards_of meta "items" in
  let own =
    List.filter
      (fun (sh : Citus.Metadata.shard) ->
        String.equal "worker1"
          (Citus.Metadata.placement meta sh.Citus.Metadata.shard_id))
      shards
  in
  Alcotest.(check int) "one fragment per task" (List.length shards)
    (List.length fragments);
  Alcotest.(check int) "the worker's own shards ran locally"
    (List.length own)
    (List.length (List.filter (contains ~needle:"local=true") fragments));
  Alcotest.(check bool) "local fragments trace on the worker" true
    (List.for_all
       (fun l ->
         (not (contains ~needle:"local=true" l))
         || contains ~needle:"fragment on worker1 " l)
       fragments);
  Alcotest.(check int) "every span that started finished"
    (Obs.Trace.started trace) (Obs.Trace.finished trace)

(* --- typed UDF usage errors --- *)

let test_udf_usage_errors () =
  let _cluster, _citus, s = make () in
  setup_items s;
  let expect_error sql expected =
    match exec s sql with
    | _ -> Alcotest.failf "%s should have failed" sql
    | exception Engine.Instance.Session_error m ->
      Alcotest.(check string) ("uniform usage error for " ^ sql) expected m
  in
  expect_error "SELECT create_distributed_table('items')"
    "create_distributed_table(table text, column text [, colocate_with text])";
  expect_error "SELECT citus_explain(42)"
    "citus_explain(query text [, mode text])";
  expect_error "SELECT citus_move_shard_placement('x', 'worker1')"
    "citus_move_shard_placement(shard_id int, to_node text)";
  expect_error "SELECT rebalance_table_shards(1)"
    "rebalance_table_shards()";
  expect_error "SELECT citus_set_replication_factor('two')"
    "citus_set_replication_factor(factor int)"

let test_udf_combinator_unit () =
  (* direct combinator checks, no cluster involved *)
  let spec = Citus.Udf.(int "a" @-> text "b" @?-> returning int_result) in
  Alcotest.(check string) "signature rendering" "f(a int [, b text])"
    (Citus.Udf.signature "f" spec);
  let impl a b () =
    (2 * a) + match b with Some _ -> 1 | None -> 0
  in
  (match Citus.Udf.apply "f" spec impl [ Datum.Int 5 ] with
   | Datum.Int 10 -> ()
   | d -> Alcotest.failf "expected 10, got %s" (Datum.to_display d));
  (match Citus.Udf.apply "f" spec impl [ Datum.Int 5; Datum.Text "x" ] with
   | Datum.Int 11 -> ()
   | d -> Alcotest.failf "expected 11, got %s" (Datum.to_display d));
  (* the implementation must not run on arity mismatch *)
  let ran = ref false in
  let spec0 = Citus.Udf.(returning int_result) in
  (match
     Citus.Udf.apply "g" spec0
       (fun () ->
         ran := true;
         1)
       [ Datum.Int 9 ]
   with
   | _ -> Alcotest.fail "extra argument must be rejected"
   | exception Engine.Instance.Session_error m ->
     Alcotest.(check string) "zero-arg usage" "g()" m);
  Alcotest.(check bool) "impl did not half-run" false !ran

(* --- counters --- *)

let counter snap name =
  match List.assoc_opt name snap.Obs.Metrics.s_counters with
  | Some v -> v
  | None -> 0

let test_counter_monotonicity () =
  let cluster, _citus, s = make () in
  setup_items s;
  let m = Cluster.Topology.metrics cluster in
  let before = Obs.Metrics.snapshot m in
  ignore (exec s "SELECT count(*) FROM items");
  ignore (exec s "SELECT * FROM items WHERE key = 5");
  let after = Obs.Metrics.snapshot m in
  (* every counter is monotonic *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "counter %s monotonic" name)
        true
        (counter after name >= v))
    before.Obs.Metrics.s_counters;
  Alcotest.(check bool) "pushdown tier counted" true
    (counter after "planner.tier.pushdown"
     > counter before "planner.tier.pushdown");
  Alcotest.(check bool) "fast path tier counted" true
    (counter after "planner.tier.fast_path"
     > counter before "planner.tier.fast_path");
  (* engine meters folded in under engine.<node>.* *)
  Alcotest.(check bool) "engine probe folded into snapshot" true
    (List.exists
       (fun (name, _) ->
         String.length name > 7 && String.sub name 0 7 = "engine.")
       after.Obs.Metrics.s_counters);
  (* fragment histogram collected observations *)
  (match List.assoc_opt "exec.fragment_seconds" after.Obs.Metrics.s_histograms with
   | Some h -> Alcotest.(check bool) "fragments observed" true (h.Obs.Metrics.count > 0)
   | None -> Alcotest.fail "exec.fragment_seconds histogram missing")

let test_snapshot_determinism () =
  let run () =
    let cluster, _citus, s = make () in
    Obs.Trace.set_enabled (Cluster.Topology.trace cluster) true;
    setup_items s;
    ignore (exec s "SELECT count(*) FROM items");
    ignore (exec s "UPDATE items SET qty = qty + 1 WHERE key = 3");
    let obs = Cluster.Topology.obs cluster in
    ( Obs.Metrics.render (Obs.Metrics.snapshot obs.Obs.metrics),
      Obs.Trace.render_tree (Obs.Trace.spans obs.Obs.trace) )
  in
  let m1, t1 = run () in
  let m2, t2 = run () in
  Alcotest.(check string) "bit-identical metric snapshots" m1 m2;
  Alcotest.(check (list string)) "bit-identical span trees" t1 t2

let test_disabled_sink_zero_cost () =
  let cluster, _citus, s = make () in
  setup_items s;
  let trace = Cluster.Topology.trace cluster in
  Alcotest.(check bool) "sink starts disabled" false (Obs.Trace.enabled trace);
  let started0 = Obs.Trace.started trace in
  ignore (exec s "SELECT count(*) FROM items");
  ignore (exec s "SELECT * FROM items WHERE key = 5");
  ignore (exec s "UPDATE items SET qty = 0 WHERE key = 7");
  Alcotest.(check int) "no spans started while disabled" started0
    (Obs.Trace.started trace);
  Alcotest.(check int) "no spans buffered" 0
    (List.length (Obs.Trace.spans trace));
  (* metrics still flow with the sink off *)
  Alcotest.(check bool) "counters unaffected by the sink" true
    (Obs.Metrics.counter_value (Cluster.Topology.metrics cluster)
       (Obs.Metric_names.planner_tier "pushdown")
     > 0)

(* spans close even when execution raises *)
let test_span_conservation_on_error () =
  let cluster, _citus, s = make () in
  setup_items s;
  let trace = Cluster.Topology.trace cluster in
  Obs.Trace.set_enabled trace true;
  (try ignore (exec s "SELECT no_such_column FROM items") with _ -> ());
  (try ignore (exec s "SELECT * FROM no_such_table WHERE key = 1") with _ -> ());
  Obs.Trace.set_enabled trace false;
  Alcotest.(check int) "started = finished after errors"
    (Obs.Trace.started trace) (Obs.Trace.finished trace);
  Alcotest.(check int) "no span left open" 0 (Obs.Trace.open_count trace)

(* --- the stat UDFs --- *)

let test_stat_udfs () =
  let cluster, _citus, s = make () in
  setup_items s;
  ignore (exec s "SELECT count(*) FROM items");
  (match (exec s "SELECT citus_stat_counters()").Engine.Instance.rows with
   | [ [| Datum.Json (Json.Obj fields) |] ] ->
     (match List.assoc_opt "counters" fields with
      | Some (Json.Obj counters) ->
        Alcotest.(check bool) "counters non-empty" true (counters <> []);
        Alcotest.(check bool) "planner tier visible via SQL" true
          (List.mem_assoc "planner.tier.pushdown" counters)
      | _ -> Alcotest.fail "citus_stat_counters: no counters object")
   | _ -> Alcotest.fail "citus_stat_counters must return one json row");
  (* with tracing on, the activity view shows this very statement *)
  ignore (exec s "SELECT citus_set_tracing('on')");
  (match (exec s "SELECT citus_stat_activity()").Engine.Instance.rows with
   | [ [| Datum.Json (Json.Obj fields) |] ] ->
     Alcotest.(check bool) "tracing_enabled reported" true
       (List.assoc_opt "tracing_enabled" fields = Some (Json.Bool true));
     (match List.assoc_opt "active" fields with
      | Some (Json.Arr spans) ->
        Alcotest.(check bool) "own statement span visible" true
          (List.exists
             (function
               | Json.Obj sp -> List.assoc_opt "kind" sp = Some (Json.Str "statement")
               | _ -> false)
             spans)
      | _ -> Alcotest.fail "citus_stat_activity: no active array")
   | _ -> Alcotest.fail "citus_stat_activity must return one json row");
  ignore (exec s "SELECT citus_set_tracing('off')");
  Alcotest.(check bool) "tracing off again" false
    (Obs.Trace.enabled (Cluster.Topology.trace cluster))

(* Histograms against the list representation they used to have: each
   observation consed on a newest-first list, summarized through
   [Array.sort compare]. Summaries must agree bit for bit, ties that
   print apart (0.0, -0.0) and NaN included, across several growths of
   the unboxed array. *)
let list_summary obs =
  let arr = Array.of_list obs in
  Array.sort compare arr;
  let n = Array.length arr in
  let pct p =
    if n = 0 then 0.0
    else arr.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  {
    Obs.Metrics.count = List.length obs;
    sum = Array.fold_left ( +. ) 0.0 arr;
    p50 = pct 0.50;
    p95 = pct 0.95;
    max = (if n = 0 then 0.0 else arr.(n - 1));
  }

let same_summary (a : Obs.Metrics.hist_summary) (b : Obs.Metrics.hist_summary) =
  let bits = Int64.bits_of_float in
  a.count = b.count
  && List.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       [ a.sum; a.p50; a.p95; a.max ] [ b.sum; b.p50; b.p95; b.max ]

let prop_histogram_model =
  QCheck2.Test.make ~name:"histograms match a list model" ~count:20
    QCheck2.Gen.(
      let value =
        frequency
          [
            (6, float);
            (3, map float_of_int (int_range (-3) 3));
            (1, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity ]);
          ]
      in
      list_size (int_range 800 1500)
        (pair (frequency [ (4, return "a"); (1, return "b") ]) value))
    (fun ops ->
      let m = Obs.Metrics.create () in
      let model = Hashtbl.create 2 in
      let check () =
        List.iter
          (fun (name, got) ->
            let want = list_summary (Hashtbl.find model name) in
            if not (same_summary got want) then
              QCheck2.Test.fail_reportf "%s: count=%d p50=%h, model count=%d p50=%h"
                name got.Obs.Metrics.count got.Obs.Metrics.p50
                want.Obs.Metrics.count want.Obs.Metrics.p50)
          (Obs.Metrics.snapshot m).Obs.Metrics.s_histograms
      in
      List.iteri
        (fun i (name, v) ->
          Obs.Metrics.observe m (Obs.Metrics.key name) v;
          Hashtbl.replace model name
            (v :: Option.value (Hashtbl.find_opt model name) ~default:[]);
          if i mod 97 = 0 then check ())
        ops;
      check ();
      (* the array starts at 64 and doubles: three growths past 256 *)
      List.length (Hashtbl.find model "a") > 256)

let () =
  Alcotest.run "obs"
    [
      ( "span-trees",
        [
          Alcotest.test_case "fast path + router" `Quick
            test_fast_path_and_router_spans;
          Alcotest.test_case "pushdown fragments" `Quick test_pushdown_spans;
          Alcotest.test_case "join-order fallback" `Quick test_join_order_spans;
          Alcotest.test_case "conservation on error" `Quick
            test_span_conservation_on_error;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "all four tiers" `Quick
            test_explain_analyze_all_tiers;
          Alcotest.test_case "deterministic" `Quick
            test_explain_analyze_deterministic;
          Alcotest.test_case "local fragments on an mx worker" `Quick
            test_explain_analyze_local_fragments;
        ] );
      ( "typed-udfs",
        [
          Alcotest.test_case "usage errors" `Quick test_udf_usage_errors;
          Alcotest.test_case "combinator" `Quick test_udf_combinator_unit;
        ] );
      ( "metrics",
        [
          QCheck_alcotest.to_alcotest prop_histogram_model;
          Alcotest.test_case "monotonicity" `Quick test_counter_monotonicity;
          Alcotest.test_case "determinism" `Quick test_snapshot_determinism;
          Alcotest.test_case "disabled sink" `Quick
            test_disabled_sink_zero_cost;
          Alcotest.test_case "stat udfs" `Quick test_stat_udfs;
        ] );
    ]
