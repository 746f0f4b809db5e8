(* Run one lib/workloads loop under the SIGPROF sampler and print its
   self / inclusive / stdlib-caller tables. Set-up runs before sampling
   starts, so the tables cover only the timed loop.

     dune exec tools/profile/profile_workload.exe -- \
       --workload tpcc --seconds 10 --seed 3 *)

let workload = ref "tpcc"

let seconds = ref 10.0

let seed = ref 1

let spec =
  [
    ("--workload", Arg.Set_string workload, " tpcc | ycsb | ycsb_prepared | rt | rt_dashboard | rt_copy (default tpcc)");
    ("--seconds", Arg.Set_float seconds, " length of the sampled loop (default 10)");
    ("--seed", Arg.Set_int seed, " workload seed (default 1)");
  ]

(* Each workload function does the set-up and returns its database, its
   maintenance period in ops (the cadence bench/suite uses for the same
   workload) and one op of the loop. *)
let tpcc rng =
  let cfg = { Workloads.Tpcc.default_config with warehouses = 16 } in
  let db = Workloads.Db.citus ~workers:4 () in
  Workloads.Tpcc.setup db cfg;
  Workloads.Tpcc.enable_delegation db;
  (db, 500, fun () -> ignore (Workloads.Tpcc.run_one db db.Workloads.Db.session cfg rng))

let ycsb rng =
  let cfg = { Workloads.Ycsb.default_config with rows = 5_000 } in
  let db = Workloads.Db.citus ~workers:4 () in
  Workloads.Ycsb.setup db cfg;
  (db, 2_000, fun () -> ignore (Workloads.Ycsb.run_one db.Workloads.Db.session cfg rng))

(* The same op mix through PREPARE / EXECUTE: plan-cache hits. *)
let ycsb_prepared rng =
  let cfg = { Workloads.Ycsb.default_config with rows = 5_000 } in
  let db = Workloads.Db.citus ~workers:4 () in
  Workloads.Ycsb.setup db cfg;
  let s = db.Workloads.Db.session in
  Citus.Session.prepare s ~name:"read" "SELECT * FROM usertable WHERE ycsb_key = $1";
  Citus.Session.prepare s ~name:"update"
    "UPDATE usertable SET field0 = $1 WHERE ycsb_key = $2";
  ( db,
    2_000,
    fun () ->
      match Workloads.Ycsb.next_op cfg rng with
      | Workloads.Ycsb.Read, key ->
        ignore (Citus.Session.execute s "read" [ Datum.Int key ])
      | Workloads.Ycsb.Update, key ->
        ignore
          (Citus.Session.execute s "update"
             [ Datum.Text (string_of_int (Random.State.bits rng)); Datum.Int key ]) )

(* The bench/suite rt_analytics loop: 4,000 events loaded, then ops
   that COPY an 8-event batch and delete the oldest events back to the
   loaded count (retention), with the dashboard every sixth op. [half]
   keeps only the dashboards or only the COPY and retention ops, so a
   hot frame can be told to one side. *)
let rt ?half rng =
  let db = Workloads.Db.citus ~shard_count:32 ~workers:4 () in
  Workloads.Gharchive.setup_schema db;
  let events n =
    Workloads.Gharchive.generate_lines ~seed:(Random.State.bits rng)
      { Workloads.Gharchive.events = n; days = 7; commits_per_event = 3;
        postgres_fraction = 0.2 }
  in
  let live = Queue.create () in
  let copy lines =
    ignore
      (Engine.Instance.copy_in db.Workloads.Db.session ~table:"github_events"
         ~columns:None lines);
    List.iter (fun l -> Queue.push (List.hd (String.split_on_char '\t' l)) live) lines
  in
  let rec load = function
    | [] -> ()
    | lines ->
      copy (List.filteri (fun i _ -> i < 200) lines);
      load (List.filteri (fun i _ -> i >= 200) lines)
  in
  load (events 4_000);
  let retained = Queue.length live in
  let n = ref 0 in
  ( db,
    60,
    fun () ->
      incr n;
      let dashboard =
        match half with Some `Dashboard -> true | Some `Copy -> false | None -> !n mod 6 = 0
      in
      if dashboard then
        ignore (Workloads.Db.exec db Workloads.Gharchive.dashboard_query)
      else begin
        copy (events 8);
        while Queue.length live > retained do
          ignore
            (Workloads.Db.exec db
               (Printf.sprintf "DELETE FROM github_events WHERE event_id = '%s'"
                  (Queue.pop live)))
        done
      end )

let () =
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "profile_workload.exe [options]";
  let rng = Random.State.make [| !seed |] in
  let db, maint_every, op =
    match !workload with
    | "tpcc" -> tpcc rng
    | "ycsb" -> ycsb rng
    | "ycsb_prepared" -> ycsb_prepared rng
    | "rt" -> rt rng
    | "rt_dashboard" -> rt ~half:`Dashboard rng
    | "rt_copy" -> rt ~half:`Copy rng
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  (* statement-cache and kept-plan counts summed over every node (kept
     plans also on the coordinator alone), taken around the loop *)
  let cluster = db.Workloads.Db.cluster in
  let sum ?(nodes = Cluster.Topology.all_nodes cluster) init f =
    List.fold_left
      (fun acc (node : Cluster.Topology.node) -> f acc node.Cluster.Topology.instance)
      init nodes
  in
  let cache_stats () =
    sum (0, 0, 0) (fun (h, m, u) inst ->
        let st = Sqlfront.Stmt_cache.stats (Engine.Instance.stmt_cache inst) in
        Sqlfront.Stmt_cache.(h + st.hits, m + st.misses, u + st.uncacheable))
  in
  let plan_stats of_inst ?nodes () =
    sum ?nodes (0, 0, 0, 0) (fun (b, r, p, i) inst ->
        let st = of_inst inst in
        Engine.Executor.
          (b + st.builds, r + st.runs, p + st.planned_runs, i + st.invalidations))
  in
  let kept = plan_stats Engine.Instance.plan_stats
  and templates = plan_stats Engine.Instance.template_plan_stats
  and coordinator = [ cluster.Cluster.Topology.coordinator ] in
  let h0, m0, u0 = cache_stats () in
  let k0 = kept () and kc0 = kept ~nodes:coordinator () in
  let tp0 = templates () and tpc0 = templates ~nodes:coordinator () in
  let ops = ref 0 and ticks = ref 0 and tick_s = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  Sampler.start ();
  while Unix.gettimeofday () -. t0 < !seconds do
    op ();
    incr ops;
    if !ops mod maint_every = 0 then begin
      let t = Unix.gettimeofday () in
      Option.iter Citus.Api.maintenance db.Workloads.Db.citus;
      incr ticks;
      tick_s := !tick_s +. (Unix.gettimeofday () -. t)
    end
  done;
  Sampler.stop ();
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "%s: %d ops in %.1f s (%.0f ops/s), %d samples\n" !workload !ops
    elapsed
    (float_of_int !ops /. elapsed)
    (Sampler.count ());
  (* work deferred to the daemon (vacuum, GIN cleanup) shows here *)
  Printf.printf "maintenance: %d ticks, %.1f%% of wall time (%.2f ms per tick)\n" !ticks
    (100.0 *. !tick_s /. elapsed)
    (if !ticks > 0 then 1e3 *. !tick_s /. float_of_int !ticks else 0.0);
  let h1, m1, u1 = cache_stats () in
  Printf.printf "statement cache: %d hits, %d misses, %d uncacheable skeletons\n"
    (h1 - h0) (m1 - m0) (u1 - u0);
  let delta (b1, r1, p1, i1) (b0, r0, p0, i0) =
    Printf.sprintf "%d builds, %d runs (%d planned), %d invalidations" (b1 - b0)
      (r1 - r0) (p1 - p0) (i1 - i0)
  in
  Printf.printf "kept plans: %s; on the coordinator: %s\n" (delta (kept ()) k0)
    (delta (kept ~nodes:coordinator ()) kc0);
  (* a hit that no UDF or hook claims is a data statement run from its
     template's kept plan: one template run each *)
  let ((_, tr1, _, _) as t1) = templates () and (_, tr0, _, _) = tp0 in
  Printf.printf
    "template kept plans: %s; on the coordinator: %s; unclaimed data statements: %.1f%% \
     of hits\n"
    (delta t1 tp0)
    (delta (templates ~nodes:coordinator ()) tpc0)
    (if h1 > h0 then 100.0 *. float_of_int (tr1 - tr0) /. float_of_int (h1 - h0) else 0.0);
  (* plan-cache shapes since set-up began; a key that repeats a [$k]
     binds one value at two places *)
  Option.iter
    (fun (api : Citus.Api.t) ->
      let shapes = Citus.Plancache.stats api.Citus.Api.plancache in
      let repeats key =
        let ks =
          List.filter_map
            (function Sqlfront.Lexer.Param_tok k -> Some k | _ -> None)
            (Sqlfront.Lexer.tokenize key)
        in
        List.compare_lengths (List.sort_uniq Int.compare ks) ks <> 0
      in
      let repeated = List.filter (fun (key, _) -> repeats key) shapes in
      let sum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 in
      Printf.printf
        "plan cache: %d shape keys, %d repeat a $k; %d builds, %d calls (%d to \
         keys that repeat a $k)\n"
        (List.length shapes) (List.length repeated)
        (sum (fun st -> st.Citus.Plancache.st_builds) shapes)
        (sum (fun st -> st.Citus.Plancache.st_calls) shapes)
        (sum (fun st -> st.Citus.Plancache.st_calls) repeated);
      List.iter (fun (key, _) -> Printf.printf "  repeats a $k: %s\n" key) repeated)
    db.Workloads.Db.citus;
  Sampler.report stdout
