(* Prepared statements and the distributed plan cache (DESIGN.md §4i).

   The targeted groups pin the mechanism down deterministically: the
   PREPARE / EXECUTE / DEALLOCATE lifecycle (SQL and the typed
   [Citus.Session] surface), the typed bind error, cache hit/miss/
   bypass accounting, the LRU bound ([citus.plan_cache_size]), and —
   correctness-critical — the invalidation matrix: schema DDL, a shard
   move, a rebalance after node addition, and a replication-factor
   change between two EXECUTEs must each revalidate the cached plan;
   a stale deparse string must never execute. The worker-side
   statements behind cache hits are inspected on both ends of every
   connection: a warm EXECUTE parses nothing on the worker, an
   invalidation or an eviction closes the old statements and the next
   EXECUTE re-prepares, registries stay within plan_cache_size x groups,
   and plan_cache_size = 0 prepares nothing.

   The chaos group then replays the story under a seeded storm:
   prepared executes run across crashes, partitions, dropped round
   trips and a mid-storm [citus_move_shard_placement]. Every execute
   that succeeds must return the row the key maps to (zero wrong-shard
   reads — the invariant a stale plan would break), and the same seed
   replays bit-for-bit. A second mix restarts workers under prepared
   reads, prepared writes and ad-hoc reads, so connections and their
   worker-side statements die and are re-prepared mid-workload. *)

let exec s sql = Engine.Instance.exec s sql

let counter cluster name =
  Obs.Metrics.counter_value (Cluster.Topology.metrics cluster) name

let gauge cluster name =
  Obs.Metrics.gauge_value (Cluster.Topology.metrics cluster) name

let make ?(workers = 3) ?(shard_count = 8) ?active_workers ?seed () =
  let cluster =
    match seed with
    | None -> Cluster.Topology.create ~workers ()
    | Some sd ->
      Cluster.Topology.create ~workers ~fault_seed:sd ~sched_seed:sd ()
  in
  let citus = Citus.Api.install ~shard_count ?active_workers cluster in
  let s = Citus.Api.connect citus in
  (cluster, citus, s)

let n_items = 8

let setup_items ?(n = n_items) s =
  ignore (exec s "CREATE TABLE items (key bigint PRIMARY KEY, val text)");
  ignore (exec s "SELECT create_distributed_table('items', 'key')");
  for k = 0 to n - 1 do
    ignore
      (exec s
         (Printf.sprintf "INSERT INTO items (key, val) VALUES (%d, 'v%d')" k k))
  done

let check_val s ~name k =
  match (Citus.Session.execute s name [ Datum.Int k ]).Engine.Instance.rows with
  | [ [| Datum.Text v |] ] ->
    Alcotest.(check string)
      (Printf.sprintf "EXECUTE %s(%d)" name k)
      (Printf.sprintf "v%d" k) v
  | rows ->
    Alcotest.failf "EXECUTE %s(%d): expected one row, got %d" name k
      (List.length rows)

let prepare_getv s =
  Citus.Session.prepare s ~name:"getv" "SELECT val FROM items WHERE key = $1"

(* --- lifecycle --- *)

let test_sql_lifecycle () =
  let _, _, s = make () in
  setup_items s;
  ignore (exec s "PREPARE getv AS SELECT val FROM items WHERE key = $1");
  (match (exec s "EXECUTE getv(3)").Engine.Instance.rows with
   | [ [| Datum.Text "v3" |] ] -> ()
   | _ -> Alcotest.fail "EXECUTE getv(3) wrong result");
  (* PostgreSQL semantics: duplicate names error, the registry is
     session-local, DEALLOCATE drops *)
  (match exec s "PREPARE getv AS SELECT 1" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "duplicate PREPARE must fail");
  (match exec s "EXECUTE nosuch(1)" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "EXECUTE of unknown name must fail");
  Alcotest.(check (list string)) "prepared_names" [ "getv" ]
    (Engine.Instance.prepared_names s);
  ignore (exec s "DEALLOCATE getv");
  (match exec s "EXECUTE getv(3)" with
   | exception Engine.Instance.Session_error _ -> ()
   | _ -> Alcotest.fail "EXECUTE after DEALLOCATE must fail")

let test_session_surface () =
  let _, citus, s = make () in
  setup_items s;
  prepare_getv s;
  for k = 0 to n_items - 1 do
    check_val s ~name:"getv" k
  done;
  (* a second session has its own registry but shares the plan cache *)
  let s2 = Citus.Api.connect citus in
  Alcotest.(check (list string)) "registry is session-local" []
    (Citus.Session.prepared_names s2);
  Citus.Session.prepare s2 ~name:"getv" "SELECT val FROM items WHERE key = $1";
  check_val s2 ~name:"getv" 5;
  Citus.Session.deallocate s "getv";
  Alcotest.(check (list string)) "deallocate" []
    (Citus.Session.prepared_names s);
  Citus.Session.prepare s ~name:"a" "SELECT val FROM items WHERE key = $1";
  Citus.Session.prepare s ~name:"b" "SELECT key FROM items WHERE key = $1";
  Citus.Session.deallocate_all s;
  Alcotest.(check (list string)) "deallocate all" []
    (Citus.Session.prepared_names s)

let test_typed_bind_error () =
  let _, _, s = make () in
  setup_items s;
  Citus.Session.prepare s ~name:"skip"
    "SELECT val FROM items WHERE key = $2";
  (match Citus.Session.execute s "skip" [ Datum.Int 3 ] with
   | exception Engine.Instance.Session_error m ->
     Alcotest.(check string) "typed bind error"
       "no value for parameter $2 in prepared statement skip" m
   | _ -> Alcotest.fail "missing $2 must fail with the typed bind error");
  (* the routing value is bound but a filter's is not: a cache hit
     checks the arity on the coordinator, before the worker binds *)
  Citus.Session.prepare s ~name:"two"
    "SELECT val FROM items WHERE key = $1 AND val = $2";
  ignore (Citus.Session.execute s "two" [ Datum.Int 3; Datum.Text "v3" ]);
  match Citus.Session.execute s "two" [ Datum.Int 3 ] with
  | exception Engine.Instance.Session_error m ->
    Alcotest.(check string) "typed bind error on a hit"
      "no value for parameter $2 in prepared statement two" m
  | _ -> Alcotest.fail "missing $2 must fail with the typed bind error"

(* --- cache accounting --- *)

(* Counter deltas from here on: [setup_items]' ad-hoc INSERTs go
   through the plan cache too. *)
let since cluster =
  let at name = counter cluster name in
  let hits = at Obs.Metric_names.plancache_hits
  and misses = at Obs.Metric_names.plancache_misses
  and bypass = at Obs.Metric_names.plancache_bypass
  and entries = gauge cluster Obs.Metric_names.plancache_entries in
  fun () ->
    ( at Obs.Metric_names.plancache_hits - hits,
      at Obs.Metric_names.plancache_misses - misses,
      at Obs.Metric_names.plancache_bypass - bypass,
      int_of_float (gauge cluster Obs.Metric_names.plancache_entries -. entries)
    )

(* --- worker-side statements ---

   Every worker connection of the client session, as the coordinator's
   registry and the worker session's: the names the coordinator believes
   prepared, and those the worker holds. *)
let registries citus s =
  let st = Citus.Api.coordinator_state citus in
  List.concat_map
    (fun (_, conns) ->
      List.map
        (fun c ->
          ( Cluster.Connection.prepared_names c,
            Engine.Instance.prepared_names (Cluster.Connection.session c) ))
        conns)
    (Citus.State.session_state st s).Citus.State.pools

(* plan-cache entry id of a worker-side statement name *)
let entry_of name =
  match String.split_on_char '_' name with
  | [ "citus"; id; _group ] when String.length id > 1 && id.[0] = 's' ->
    int_of_string (String.sub id 1 (String.length id - 1))
  | _ -> Alcotest.failf "%s is not a worker-side statement name" name

let entry_ids citus s =
  List.sort_uniq compare
    (List.concat_map (fun (coord, _) -> List.map entry_of coord)
       (registries citus s))

let worker_prepares cluster =
  counter cluster Obs.Metric_names.exec_worker_prepares

let bound_executes cluster =
  counter cluster Obs.Metric_names.exec_worker_bound_executes

let check_ends_agree citus s =
  List.iter
    (fun (coord, worker) ->
      Alcotest.(check (list string)) "coordinator and worker registries agree"
        coord worker)
    (registries citus s)

(* Entries whose statements reached a worker since [base] was taken. *)
let entry_ids_since citus s base =
  List.filter (fun id -> not (List.mem id base)) (entry_ids citus s)

(* After an invalidating event and the EXECUTEs that follow it, where
   [stale] are the entries of the shapes re-executed: the two ends
   agree, a connection that carried a statement since the event (it
   holds a name of an entry outside [seen]) holds none of a [stale]
   entry — their statements were closed ahead of the new one's Parse —
   and the next EXECUTE re-prepared. Entries of shapes not executed
   since are only found stale at their next lookup, so their statements
   may still wait on a worker; they can never run. *)
let check_reprepared cluster citus s ~seen ~stale ~prepares_before =
  check_ends_agree citus s;
  let fresh = ref false in
  List.iter
    (fun (coord, _) ->
      let ids = List.sort_uniq compare (List.map entry_of coord) in
      if List.exists (fun id -> not (List.mem id seen)) ids then begin
        fresh := true;
        Alcotest.(check (list int)) "stale statements closed" []
          (List.filter (fun id -> List.mem id stale) ids)
      end)
    (registries citus s);
  Alcotest.(check bool) "the next EXECUTE re-prepared" true
    (!fresh && worker_prepares cluster > prepares_before)

let test_cache_hits () =
  let cluster, citus, s = make () in
  setup_items s;
  prepare_getv s;
  let delta = since cluster in
  let rounds = 3 in
  let prepares = ref 0 and bound = ref 0 in
  for round = 1 to rounds do
    for k = 0 to n_items - 1 do
      check_val s ~name:"getv" k
    done;
    if round = 1 then begin
      prepares := worker_prepares cluster;
      bound := bound_executes cluster
    end
  done;
  (* one shape: the first execute builds, every later one (any key)
     reuses the entry — bind-time pruning re-selects the shard *)
  let hits, misses, _, entries = delta () in
  Alcotest.(check int) "one build" 1 misses;
  Alcotest.(check int) "rest are hits" ((rounds * n_items) - 1) hits;
  Alcotest.(check int) "one entry" 1 entries;
  (* once every key's group has run, an EXECUTE is a bound execute of a
     statement its worker already holds: no Parse rides with it *)
  Alcotest.(check bool) "the first round prepared" true (!prepares > 0);
  Alcotest.(check int) "warm EXECUTEs prepare nothing" !prepares
    (worker_prepares cluster);
  Alcotest.(check int) "each is one bound execute"
    ((rounds - 1) * n_items)
    (bound_executes cluster - !bound);
  check_ends_agree citus s

(* Ad-hoc SQL is lifted to the same shape as the prepared statement, so
   both share one entry and one citus_stat_statements row. *)
let test_adhoc_shares_entry () =
  let cluster, _, s = make () in
  setup_items s;
  prepare_getv s;
  let delta = since cluster in
  (match (exec s "SELECT val FROM items WHERE key = 3").Engine.Instance.rows with
   | [ [| Datum.Text "v3" |] ] -> ()
   | _ -> Alcotest.fail "ad-hoc read of key 3");
  check_val s ~name:"getv" 4;
  (match (exec s "SELECT val FROM items WHERE key = 5").Engine.Instance.rows with
   | [ [| Datum.Text "v5" |] ] -> ()
   | _ -> Alcotest.fail "ad-hoc read of key 5");
  let hits, misses, bypass, entries = delta () in
  Alcotest.(check int) "one build" 1 misses;
  Alcotest.(check int) "hits after it" 2 hits;
  Alcotest.(check int) "no bypass" 0 bypass;
  Alcotest.(check int) "one entry" 1 entries;
  match (exec s "SELECT citus_stat_statements()").Engine.Instance.rows with
  | [ [| Datum.Json (Json.Arr rows) |] ] ->
    let calls =
      List.filter_map
        (function
          | Json.Obj fields
            when List.assoc_opt "query" fields
                 = Some (Json.Str "SELECT val FROM items WHERE (key = $1)") ->
            List.assoc_opt "calls" fields
          | _ -> None)
        rows
    in
    Alcotest.(check bool) "one row counting both" true
      (calls = [ Json.Num 3.0 ])
  | _ -> Alcotest.fail "citus_stat_statements must return one json row"

(* [lift_consts] numbers [$k] left to right, as a hand-written PREPARE
   does, so an ad-hoc UPDATE whose SET precedes its WHERE shares the
   prepared statement's entry. *)
let test_adhoc_update_numbering () =
  let shape, values =
    Sqlfront.Ast.lift_consts
      (Sqlfront.Parser.parse_statement "UPDATE t SET b = 5 WHERE a = 1")
  in
  Alcotest.(check string) "SET is $1, WHERE is $2"
    "UPDATE t SET b = $1 WHERE (a = $2)" (Sqlfront.Deparse.statement shape);
  Alcotest.(check bool) "values in $k order" true
    (values = [ Datum.Int 5; Datum.Int 1 ]);
  let cluster, _, s = make () in
  setup_items s;
  Citus.Session.prepare s ~name:"setv"
    "UPDATE items SET val = $1 WHERE key = $2";
  let delta = since cluster in
  ignore (exec s "UPDATE items SET val = 'w3' WHERE key = 3");
  ignore (Citus.Session.execute s "setv" [ Datum.Text "w4"; Datum.Int 4 ]);
  let hits, misses, bypass, entries = delta () in
  Alcotest.(check int) "one build" 1 misses;
  Alcotest.(check int) "EXECUTE hits the ad-hoc entry" 1 hits;
  Alcotest.(check int) "no bypass" 0 bypass;
  Alcotest.(check int) "one entry" 1 entries;
  prepare_getv s;
  List.iter
    (fun (k, v) ->
      match (Citus.Session.execute s "getv" [ Datum.Int k ]).Engine.Instance.rows with
      | [ [| Datum.Text got |] ] ->
        Alcotest.(check string) (Printf.sprintf "key %d" k) v got
      | _ -> Alcotest.failf "read of key %d" k)
    [ (3, "w3"); (4, "w4"); (5, "v5") ]

(* Reference-only reads route to the local replica, and cache too. *)
let test_adhoc_reference_read () =
  let cluster, _, s = make () in
  ignore (exec s "CREATE TABLE dims (id bigint, name text)");
  ignore (exec s "SELECT create_reference_table('dims')");
  ignore (exec s "INSERT INTO dims VALUES (1, 'one'), (2, 'two')");
  let delta = since cluster in
  let name id =
    match
      (exec s (Printf.sprintf "SELECT name FROM dims WHERE id = %d" id))
        .Engine.Instance.rows
    with
    | [ [| Datum.Text n |] ] -> n
    | _ -> Alcotest.failf "reference read of id %d" id
  in
  Alcotest.(check string) "first read" "one" (name 1);
  Alcotest.(check string) "repeat read" "two" (name 2);
  let hits, misses, _, _ = delta () in
  Alcotest.(check int) "built once" 1 misses;
  Alcotest.(check int) "the repeat is a hit" 1 hits

let test_prepared_insert () =
  let cluster, _, s = make () in
  setup_items s;
  Citus.Session.prepare s ~name:"ins"
    "INSERT INTO items (key, val) VALUES ($1, $2)";
  for k = n_items to n_items + 5 do
    ignore
      (Citus.Session.execute s "ins"
         [ Datum.Int k; Datum.Text (Printf.sprintf "v%d" k) ])
  done;
  prepare_getv s;
  for k = n_items to n_items + 5 do
    check_val s ~name:"getv" k
  done;
  (* the INSERT shape was cached too: 6 executes, 1 build *)
  Alcotest.(check bool) "insert shape cached" true
    (counter cluster Obs.Metric_names.plancache_hits >= 5)

let test_uncacheable_bypass () =
  let cluster, _, s = make () in
  setup_items s;
  (* no distribution-column equality: scatter-gather every time *)
  Citus.Session.prepare s ~name:"scan" "SELECT count(*) FROM items";
  let delta = since cluster in
  let count () =
    match (Citus.Session.execute s "scan" []).Engine.Instance.rows with
    | [ [| Datum.Int n |] ] -> Int64.to_int (Int64.of_int n)
    | _ -> Alcotest.fail "count(*) shape"
  in
  Alcotest.(check int) "first scan" n_items (count ());
  Alcotest.(check int) "second scan" n_items (count ());
  let hits, _, bypass, _ = delta () in
  Alcotest.(check int) "both bypassed" 2 bypass;
  Alcotest.(check int) "no hits" 0 hits

(* LRU eviction and stale drops also deallocate worker-side statements:
   the next bound execute on a connection carries their Close, so no
   registry outgrows plan_cache_size x groups. *)
let test_lru_bound () =
  let cluster, citus, s = make () in
  setup_items s;
  ignore (exec s "SELECT citus_set_config('plan_cache_size', '2')");
  let shapes =
    [
      ("a", "SELECT val FROM items WHERE key = $1");
      ("b", "SELECT key FROM items WHERE key = $1");
      ("c", "SELECT key, val FROM items WHERE key = $1");
      ("d", "SELECT val, key FROM items WHERE key = $1");
      ("e", "SELECT val FROM items WHERE key = $1 AND val IS NOT NULL");
    ]
  in
  List.iter (fun (name, sql) -> Citus.Session.prepare s ~name sql) shapes;
  let run name = ignore (Citus.Session.execute s name [ Datum.Int 1 ]) in
  (* the setup's INSERT entry is among the two cached; its statements
     wait on other connections *)
  let base = entry_ids citus s in
  let new_id before =
    match entry_ids_since citus s (base @ before) with
    | [ id ] -> id
    | ids -> Alcotest.failf "expected one new entry, got %d" (List.length ids)
  in
  run "a";
  let id_a = new_id [] in
  run "b";
  let id_b = new_id [ id_a ] in
  run "c";
  (* the builds of b and c evicted the INSERT entry and a: c's message
     closed a's statement *)
  let id_c = new_id [ id_a; id_b ] in
  Alcotest.(check (list int)) "eviction deallocated" [ id_b; id_c ]
    (entry_ids_since citus s base);
  check_ends_agree citus s;
  (* a version bump makes b stale; its rebuild closes the old one *)
  ignore (exec s "CREATE INDEX items_val ON items USING BTREE (val)");
  run "b";
  let id_b' = new_id [ id_b; id_c ] in
  Alcotest.(check (list int)) "stale drop deallocated" [ id_c; id_b' ]
    (entry_ids_since citus s base);
  check_ends_agree citus s;
  (* churn every shape over every key: the bound holds throughout *)
  let groups = 8 in
  for round = 1 to 3 do
    List.iter
      (fun (name, _) ->
        for k = 0 to n_items - 1 do
          let key = (k * round) mod n_items in
          ignore (Citus.Session.execute s name [ Datum.Int key ]);
          List.iter
            (fun (coord, worker) ->
              Alcotest.(check bool) "registry within plan_cache_size x groups"
                true
                (List.length coord <= 2 * groups
                && List.length worker <= 2 * groups))
            (registries citus s)
        done)
      shapes
  done;
  check_ends_agree citus s;
  Alcotest.(check bool) "churn evicted" true
    (counter cluster Obs.Metric_names.plancache_evictions >= 10);
  Alcotest.(check bool) "bounded" true
    (int_of_float (gauge cluster Obs.Metric_names.plancache_entries) <= 2);
  (* an evicted shape still executes correctly — it just rebuilds *)
  check_val s ~name:"a" 4

(* A router join that repeats one literal lifts to one [$k], so the
   ad-hoc statement caches like its PREPAREd twin. Equal literals share a
   parameter only when equal: two patterns of one query are two entries,
   each answering with its own values. *)
(* Each literal lifts to its own [$k]: equal routing values are checked
   at bind time, not merged at lift time, so a shape depends on the
   text's skeleton alone. *)
let test_adhoc_repeated_literal () =
  let cluster, citus, s = make () in
  setup_items s;
  ignore (exec s "CREATE TABLE tags (key bigint PRIMARY KEY, tag text)");
  ignore (exec s "SELECT create_distributed_table('tags', 'key', 'items')");
  for k = 0 to n_items - 1 do
    ignore (exec s (Printf.sprintf "INSERT INTO tags VALUES (%d, 't%d')" k k))
  done;
  let delta = since cluster in
  let join i t =
    List.map
      (function
        | [| Datum.Text v; Datum.Text t |] -> (v, t)
        | _ -> Alcotest.fail "join row shape")
      (exec s
         (Printf.sprintf
            "SELECT items.val, tags.tag FROM items, tags WHERE items.key = %d \
             AND tags.key = %d"
            i t))
        .Engine.Instance.rows
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "first join" [ ("v3", "t3") ] (join 3 3);
  Alcotest.check pairs "second join" [ ("v5", "t5") ] (join 5 5);
  let hits, misses, bypass, _ = delta () in
  Alcotest.(check int) "built once" 1 misses;
  Alcotest.(check int) "the second join is a hit" 1 hits;
  Alcotest.(check int) "no bypass" 0 bypass;
  (* keys in different shard groups: the skeleton cannot serve the
     call, which is planned from its bound statement *)
  let group k =
    (Citus.Metadata.shard_for_value citus.Citus.Api.metadata ~table:"items"
       (Datum.Int k))
      .Citus.Metadata.index_in_colocation
  in
  let other =
    match List.find_opt (fun k -> group k <> group 3) (List.init n_items Fun.id) with
    | Some k -> k
    | None -> Alcotest.fail "every key in one shard group"
  in
  Alcotest.check pairs "keys in two groups"
    [ ("v3", Printf.sprintf "t%d" other) ]
    (join 3 other);
  let hits, misses, bypass, _ = delta () in
  Alcotest.(check int) "still built once" 1 misses;
  Alcotest.(check int) "one bypass" 1 bypass;
  Alcotest.(check int) "no further hit" 1 hits;
  ignore (exec s "CREATE TABLE pairs (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "SELECT create_distributed_table('pairs', 'k')");
  ignore (exec s "INSERT INTO pairs VALUES (5, 5)");
  ignore (exec s "INSERT INTO pairs VALUES (6, 7)");
  let delta = since cluster in
  let pairs k v =
    List.map
      (function
        | [| Datum.Int a; Datum.Int b |] -> (a, b)
        | _ -> Alcotest.fail "pairs row shape")
      (exec s
         (Printf.sprintf "SELECT k, v FROM pairs WHERE k = %d AND v = %d" k v))
        .Engine.Instance.rows
  in
  let rows = Alcotest.(list (pair int int)) in
  Alcotest.check rows "k = 5 AND v = 5" [ (5, 5) ] (pairs 5 5);
  Alcotest.check rows "k = 6 AND v = 7" [ (6, 7) ] (pairs 6 7);
  let hits, misses, _, entries = delta () in
  Alcotest.(check int) "one entry" 1 entries;
  Alcotest.(check int) "one build" 1 misses;
  Alcotest.(check int) "the second text hits" 1 hits;
  Alcotest.check rows "k = 6 AND v = 6" [] (pairs 6 6);
  Alcotest.check rows "k = 5 AND v = 7" [] (pairs 5 7);
  Alcotest.check rows "k = 5 AND v = 5 again" [ (5, 5) ] (pairs 5 5);
  let hits, misses, _, _ = delta () in
  Alcotest.(check int) "no more builds" 1 misses;
  Alcotest.(check int) "four hits" 4 hits

let test_cache_disabled () =
  let cluster, citus, s = make () in
  ignore (exec s "SELECT citus_set_config('plan_cache_size', '0')");
  setup_items s;
  prepare_getv s;
  let delta = since cluster in
  for k = 0 to n_items - 1 do
    check_val s ~name:"getv" k
  done;
  let hits, misses, bypass, _ = delta () in
  Alcotest.(check int) "no hits" 0 hits;
  Alcotest.(check int) "no builds" 0 misses;
  Alcotest.(check bool) "counted as bypass" true (bypass >= n_items);
  (* the text path: nothing is prepared on a worker *)
  Alcotest.(check int) "no worker prepares" 0 (worker_prepares cluster);
  Alcotest.(check int) "no bound executes" 0 (bound_executes cluster);
  List.iter
    (fun (coord, worker) ->
      Alcotest.(check (list string)) "empty registry" [] (coord @ worker))
    (registries citus s)

let test_stat_statements () =
  let _, _, s = make () in
  setup_items s;
  prepare_getv s;
  for k = 0 to 4 do
    check_val s ~name:"getv" k
  done;
  match (exec s "SELECT citus_stat_statements()").Engine.Instance.rows with
  | [ [| Datum.Json (Json.Arr rows) |] ] ->
    let shape =
      List.find_map
        (function
          | Json.Obj fields -> (
            match List.assoc_opt "query" fields with
            (* the shape key is the normalized (deparsed) text, params
               unbound — not the client's original spelling *)
            | Some (Json.Str q)
              when q = "SELECT val FROM items WHERE (key = $1)" -> Some fields
            | _ -> None)
          | _ -> None)
        rows
    in
    (match shape with
     | None -> Alcotest.fail "citus_stat_statements: shape row missing"
     | Some fields ->
       Alcotest.(check bool) "calls" true
         (List.assoc_opt "calls" fields = Some (Json.Num 5.0));
       Alcotest.(check bool) "hits" true
         (List.assoc_opt "cache_hits" fields = Some (Json.Num 4.0));
       Alcotest.(check bool) "misses" true
         (List.assoc_opt "cache_misses" fields = Some (Json.Num 1.0));
       Alcotest.(check bool) "tier recorded" true
         (match List.assoc_opt "tier" fields with
          | Some (Json.Str ("fast_path" | "router")) -> true
          | _ -> false))
  | _ -> Alcotest.fail "citus_stat_statements must return one json row"

(* --- the invalidation matrix ---

   Each leg executes, changes the world, executes again, and checks
   both that the answer is still the one the key maps to and that the
   cache noticed (an invalidation was counted). *)

let invalidations cluster =
  counter cluster Obs.Metric_names.plancache_invalidations

let test_invalidate_ddl () =
  let cluster, citus, s = make () in
  setup_items s;
  let base = entry_ids citus s in
  prepare_getv s;
  check_val s ~name:"getv" 2;
  let stale = entry_ids_since citus s base
  and seen = entry_ids citus s
  and prepares_before = worker_prepares cluster in
  ignore (exec s "CREATE INDEX items_val ON items USING BTREE (val)");
  check_val s ~name:"getv" 2;
  Alcotest.(check int) "DDL invalidated the plan" 1 (invalidations cluster);
  check_reprepared cluster citus s ~seen ~stale ~prepares_before

let test_invalidate_move () =
  let cluster, citus, s = make () in
  setup_items s;
  let base = entry_ids citus s in
  prepare_getv s;
  for k = 0 to n_items - 1 do
    check_val s ~name:"getv" k
  done;
  (* move the shard holding key 3 to a different worker *)
  let meta = citus.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table:"items" (Datum.Int 3) in
  let home = Citus.Metadata.placement meta shard.Citus.Metadata.shard_id in
  let to_node =
    match
      List.find_opt
        (fun (n : Cluster.Topology.node) ->
          not (String.equal n.Cluster.Topology.node_name home))
        cluster.Cluster.Topology.workers
    with
    | Some n -> n.Cluster.Topology.node_name
    | None -> Alcotest.fail "no second worker"
  in
  let stale = entry_ids_since citus s base
  and seen = entry_ids citus s
  and prepares_before = worker_prepares cluster in
  ignore
    (exec s
       (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')"
          shard.Citus.Metadata.shard_id to_node));
  (* every key still reads its own row — the cached plan must not
     route to the old placement *)
  for k = 0 to n_items - 1 do
    check_val s ~name:"getv" k
  done;
  Alcotest.(check bool) "move invalidated the plan" true
    (invalidations cluster >= 1);
  check_reprepared cluster citus s ~seen ~stale ~prepares_before

let test_invalidate_rebalance () =
  (* start with shards packed on fewer workers, then add a node and
     rebalance between two EXECUTEs *)
  let cluster, citus, s = make ~workers:3 ~active_workers:2 () in
  setup_items s;
  let base = entry_ids citus s in
  prepare_getv s;
  check_val s ~name:"getv" 1;
  let stale = entry_ids_since citus s base
  and seen = entry_ids citus s
  and prepares_before = worker_prepares cluster in
  ignore (exec s "SELECT citus_add_node('worker3')");
  ignore (exec s "SELECT rebalance_table_shards()");
  for k = 0 to n_items - 1 do
    check_val s ~name:"getv" k
  done;
  Alcotest.(check bool) "rebalance invalidated the plan" true
    (invalidations cluster >= 1);
  check_reprepared cluster citus s ~seen ~stale ~prepares_before

let test_invalidate_replication_factor () =
  let cluster, citus, s = make () in
  setup_items s;
  let base = entry_ids citus s in
  prepare_getv s;
  check_val s ~name:"getv" 1;
  let stale = entry_ids_since citus s base
  and seen = entry_ids citus s
  and prepares_before = worker_prepares cluster in
  ignore (exec s "SELECT citus_set_replication_factor(2)");
  check_val s ~name:"getv" 1;
  Alcotest.(check int) "factor change invalidated the plan" 1
    (invalidations cluster);
  check_reprepared cluster citus s ~seen ~stale ~prepares_before

(* --- seeded chaos: prepared executes across a mid-storm shard move ---

   A lighter storm than test_chaos (reads only), aimed at the one
   invariant a stale cached plan would break: an EXECUTE that succeeds
   must return the row its key hashes to. Crashes, partitions and
   dropped round trips make placements fail over; two mid-storm
   citus_move_shard_placement calls change the placement map while
   cached plans are hot. *)

type outcome = Good of int | Wrong of string | Failed

let n_ops = 120
let chaos_step = 0.05

let schedule_storm cluster rng =
  let fault =
    match Cluster.Topology.fault cluster with
    | Some f -> f
    | None -> Alcotest.fail "cluster has no fault plan"
  in
  let workers =
    List.map
      (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
      cluster.Cluster.Topology.workers
  in
  let horizon = float_of_int n_ops *. chaos_step in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for _ = 1 to 2 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let down_for = 0.3 +. Random.State.float rng 1.0 in
    Sim.Fault.schedule_crash fault ~at ~down_for (pick workers)
  done;
  let at = Random.State.float rng (horizon *. 0.8) in
  Sim.Fault.schedule_partition
    ~heal_after:(0.5 +. Random.State.float rng 1.0)
    fault ~at ~from_:"coordinator" ~to_:(pick workers);
  Sim.Fault.set_drop_rate fault
    ~request:(Random.State.float rng 0.02)
    ~reply:(Random.State.float rng 0.02)

let ensure_prepared citus sref =
  if not (Engine.Instance.session_alive !sref) then begin
    sref := Citus.Api.connect citus;
    prepare_getv !sref
  end

let fire_move citus rng sref =
  ensure_prepared citus sref;
  let meta = citus.Citus.Api.metadata in
  let shards = Citus.Metadata.shards_of meta "items" in
  let sh = List.nth shards (Random.State.int rng (List.length shards)) in
  let workers =
    List.map
      (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
      citus.Citus.Api.cluster.Cluster.Topology.workers
  in
  let to_node = List.nth workers (Random.State.int rng (List.length workers)) in
  try
    ignore
      (exec !sref
         (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')"
            sh.Citus.Metadata.shard_id to_node))
  with _ -> ()

let run_prepared_chaos ~seed =
  let cluster, citus, s = make ~seed () in
  Citus.Api.set_replication_factor citus 2;
  setup_items s;
  prepare_getv s;
  let clock = cluster.Cluster.Topology.clock in
  let sched_rng = Random.State.make [| seed; 0xfa07 |] in
  let wl_rng = Random.State.make [| seed; 0x0b5e |] in
  schedule_storm cluster sched_rng;
  let sref = ref s in
  let outcomes = ref [] in
  for i = 1 to n_ops do
    Sim.Clock.advance clock chaos_step;
    let k = Random.State.int wl_rng n_items in
    ensure_prepared citus sref;
    let o =
      match (Citus.Session.execute !sref "getv" [ Datum.Int k ]).rows with
      | [ [| Datum.Text v |] ] when String.equal v (Printf.sprintf "v%d" k) ->
        Good k
      | rows ->
        Wrong
          (Printf.sprintf "key %d got %d row(s): %s" k (List.length rows)
             (String.concat ";"
                (List.concat_map
                   (fun r -> Array.to_list (Array.map Datum.to_display r))
                   rows)))
      | exception _ -> Failed
    in
    outcomes := o :: !outcomes;
    if i mod 40 = 17 then fire_move citus wl_rng sref
  done;
  (cluster, List.rev !outcomes)

let test_chaos_seed seed () =
  let cluster, outcomes = run_prepared_chaos ~seed in
  List.iter
    (function
      | Wrong m -> Alcotest.failf "seed %d: wrong-shard read: %s" seed m
      | Good _ | Failed -> ())
    outcomes;
  let good = List.length (List.filter (function Good _ -> true | _ -> false) outcomes) in
  (* the storm must not drown the workload: most executes succeed *)
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: %d/%d executes returned rows" seed good n_ops)
    true
    (good > n_ops / 2);
  (* and the cache must actually have been in play *)
  Alcotest.(check bool) "cache served hits under the storm" true
    (counter cluster Obs.Metric_names.plancache_hits > 0)

let seed_matrix = [ 1; 2; 3; 4 ]

let test_reproducible () =
  let _, a = run_prepared_chaos ~seed:7 in
  let _, b = run_prepared_chaos ~seed:7 in
  Alcotest.(check bool) "same seed, same outcome stream" true (a = b)

(* --- seeded chaos: worker restarts under worker-side statements ---

   Workers crash and come back while a mix of prepared reads, prepared
   writes (each rewrites a key's own value, so every read has one right
   answer) and ad-hoc reads runs: a restart kills the worker sessions,
   the pooled connections go with them, and the replacements must
   re-prepare before they execute. Every read that succeeds must return
   its key's row, and on every live connection the coordinator must
   never believe a statement prepared that its worker lacks — that
   belief is what lets it skip the Parse. *)

let run_restart_chaos ~seed =
  let cluster, citus, s = make ~seed () in
  setup_items s;
  let fault =
    match Cluster.Topology.fault cluster with
    | Some f -> f
    | None -> Alcotest.fail "cluster has no fault plan"
  in
  let rng = Random.State.make [| seed; 0x5e57 |] in
  let workers =
    List.map
      (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
      cluster.Cluster.Topology.workers
  in
  let horizon = float_of_int n_ops *. chaos_step in
  for _ = 1 to 4 do
    Sim.Fault.schedule_crash fault
      ~at:(Random.State.float rng (horizon *. 0.8))
      ~down_for:(0.2 +. Random.State.float rng 0.5)
      (List.nth workers (Random.State.int rng (List.length workers)))
  done;
  Sim.Fault.set_drop_rate fault
    ~request:(Random.State.float rng 0.02)
    ~reply:(Random.State.float rng 0.02);
  prepare_getv s;
  Citus.Session.prepare s ~name:"setv"
    "UPDATE items SET val = $2 WHERE key = $1";
  let read k run =
    match run () with
    | { Engine.Instance.rows = [ [| Datum.Text v |] ]; _ }
      when String.equal v (Printf.sprintf "v%d" k) ->
      Good k
    | r -> Wrong (Printf.sprintf "key %d got %d row(s)" k (List.length r.rows))
    | exception _ -> Failed
  in
  let outcomes =
    List.init n_ops (fun _ ->
        Sim.Clock.advance cluster.Cluster.Topology.clock chaos_step;
        let k = Random.State.int rng n_items in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
          read k (fun () -> Citus.Session.execute s "getv" [ Datum.Int k ])
        | 5 | 6 | 7 -> (
          match
            Citus.Session.execute s "setv"
              [ Datum.Int k; Datum.Text (Printf.sprintf "v%d" k) ]
          with
          | _ -> Good k
          | exception _ -> Failed)
        | _ ->
          read k (fun () ->
              exec s (Printf.sprintf "SELECT val FROM items WHERE key = %d" k)))
  in
  (cluster, citus, s, outcomes)

let test_restart_chaos seed () =
  let cluster, citus, s, outcomes = run_restart_chaos ~seed in
  List.iter
    (function
      | Wrong m -> Alcotest.failf "seed %d: wrong-shard read: %s" seed m
      | Good _ | Failed -> ())
    outcomes;
  let good =
    List.length (List.filter (function Good _ -> true | _ -> false) outcomes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: %d/%d ops succeeded" seed good n_ops)
    true (good > n_ops / 2);
  Alcotest.(check bool) "hits went out as bound executes" true
    (bound_executes cluster > n_ops / 2);
  let st = Citus.Api.coordinator_state citus in
  List.iter
    (fun (_, conns) ->
      List.iter
        (fun c ->
          let sess = Cluster.Connection.session c in
          if Engine.Instance.session_alive sess then
            let worker = Engine.Instance.prepared_names sess in
            List.iter
              (fun name ->
                if not (List.mem name worker) then
                  Alcotest.failf "seed %d: %s is not prepared on its worker"
                    seed name)
              (Cluster.Connection.prepared_names c))
        conns)
    (Citus.State.session_state st s).Citus.State.pools

let test_restart_reproducible () =
  let run () =
    let cluster, _, _, outcomes = run_restart_chaos ~seed:5 in
    (outcomes, worker_prepares cluster, bound_executes cluster)
  in
  Alcotest.(check bool) "same seed, same outcomes and statement traffic" true
    (run () = run ())

(* A [$k] inside a WHERE subquery is bound like any other: the literal
   statement and the EXECUTE of its prepared form return the same rows,
   on a local table of a Citus coordinator. *)
let test_subquery_parameter () =
  let _, _, s = make () in
  ignore (exec s "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
  ignore (exec s "INSERT INTO t VALUES (1, 10), (2, 20)");
  let keys sql =
    List.map
      (function [| Datum.Int k |] -> k | _ -> -1)
      (exec s sql).Engine.Instance.rows
  in
  Alcotest.(check (list int)) "literal" [ 1 ]
    (keys "SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v = 10)");
  ignore (exec s "PREPARE p AS SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v = $1)");
  Alcotest.(check (list int)) "EXECUTE" [ 1 ] (keys "EXECUTE p(10)");
  Alcotest.(check (list int)) "another value" [ 2 ] (keys "EXECUTE p(20)")

let () =
  Alcotest.run "prepared"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "sql PREPARE/EXECUTE/DEALLOCATE" `Quick
            test_sql_lifecycle;
          Alcotest.test_case "typed Session surface" `Quick
            test_session_surface;
          Alcotest.test_case "typed bind error" `Quick test_typed_bind_error;
          Alcotest.test_case "subquery parameter" `Quick test_subquery_parameter;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits after one build" `Quick test_cache_hits;
          Alcotest.test_case "ad-hoc and EXECUTE share an entry" `Quick
            test_adhoc_shares_entry;
          Alcotest.test_case "ad-hoc UPDATE matches PREPARE" `Quick
            test_adhoc_update_numbering;
          Alcotest.test_case "ad-hoc reference read hits" `Quick
            test_adhoc_reference_read;
          Alcotest.test_case "prepared insert" `Quick test_prepared_insert;
          Alcotest.test_case "uncacheable shapes bypass" `Quick
            test_uncacheable_bypass;
          Alcotest.test_case "lru bound" `Quick test_lru_bound;
          Alcotest.test_case "ad-hoc repeated literal" `Quick
            test_adhoc_repeated_literal;
          Alcotest.test_case "plan_cache_size=0 disables" `Quick
            test_cache_disabled;
          Alcotest.test_case "citus_stat_statements" `Quick
            test_stat_statements;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "schema DDL" `Quick test_invalidate_ddl;
          Alcotest.test_case "shard move" `Quick test_invalidate_move;
          Alcotest.test_case "add node + rebalance" `Quick
            test_invalidate_rebalance;
          Alcotest.test_case "replication factor" `Quick
            test_invalidate_replication_factor;
        ] );
      ( "chaos",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d" seed)
              `Quick (test_chaos_seed seed))
          seed_matrix
        @ [
            Alcotest.test_case "same seed, same storm" `Quick
              test_reproducible;
          ] );
      ( "restarts",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d" seed)
              `Quick (test_restart_chaos seed))
          seed_matrix
        @ [
            Alcotest.test_case "same seed, same restarts" `Quick
              test_restart_reproducible;
          ] );
    ]
