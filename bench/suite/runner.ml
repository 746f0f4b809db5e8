(* One workload, one process: set-up (repeated, median reported), the
   untimed warm-up, the timed untraced phase that yields the end-to-end
   metrics and the per-op counts, then an optional traced phase that
   times each layer from outside through its public functions. *)

open Workload

exception Wrong of string

type config = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  scale : float;  (** data and op-count scale; 1.0 except in smoke runs *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  traced : bool;
}

type value = {
  metric : string;
  value : float;
  clock : string;
      (** wall (monotonic clock), host (monotonic clock scaled to the
          quiet reference host, see Host), virtual (Sim.Cost model),
          count (deterministic per seed) or gc (OCaml runtime counters) *)
  calls : int option;  (** call count, for per-call medians *)
}

(* Only produced when every result was correct: a wrong one raises
   [Wrong] instead. *)
type result = {
  workload : string;
  attempted : int;
  failed : int;
  values : value list;  (** in BENCHMARK.json's order *)
  malformed : int;  (** traced ops without exactly one root span *)
  notes : string list;  (** human-readable checks printed after the metrics *)
}

let run_call (env : env) op =
  match op.call with
  | Sql sql -> Engine.Instance.exec env.session sql
  | Execute (name, args) -> Citus.Session.execute env.session name args
  | Copy (table, lines) ->
    let n = Engine.Instance.copy_in env.session ~table ~columns:None lines in
    { Engine.Instance.columns = []; rows = []; affected = n; tag = "COPY" }

(* --- the closed loop --- *)

(* Durations in op order, each with the monotonic time it began. *)
type series = { dur : Stats.buf; at : Stats.buf }

let series () = { dur = Stats.buf (); at = Stats.buf () }

let record s ~at dur =
  Stats.push s.dur dur;
  Stats.push s.at (float_of_int at)

(* The durations scaled to quiet-host time (see Host). *)
let on_quiet_host factor_at s =
  let b = Stats.buf () in
  for i = 0 to Stats.count s.dur - 1 do
    Stats.push b (s.dur.Stats.a.(i) *. factor_at s.at.Stats.a.(i))
  done;
  b

type loop = {
  w : Workload.t;
  env : env;
  maint_every : int;
  mutable index : int;  (** ops issued since set-up began *)
  mutable attempted : int;
  mutable failed : int;
  reads : series;  (** latency, ns *)
  writes : series;
  kinds : (string, cls * series) Hashtbl.t;  (** latency per op kind *)
  ticks : Stats.buf;  (** maintenance tick, ms *)
}

let new_loop w env ~scale =
  {
    w;
    env;
    maint_every = scaled scale w.maint_every;
    index = 0;
    attempted = 0;
    failed = 0;
    reads = series ();
    writes = series ();
    kinds = Hashtbl.create 8;
    ticks = Stats.buf ();
  }

let failure_reports = ref 0

(* Count a failed op; the first few are reported on stderr. *)
let failure l what e =
  l.failed <- l.failed + 1;
  if !failure_reports < 5 then begin
    incr failure_reports;
    Printf.eprintf "%s: %s %d raised %s\n%!" l.w.name what l.index (Printexc.to_string e)
  end

let next_op l =
  l.index <- l.index + 1;
  l.attempted <- l.attempted + 1;
  l.env.next ()

(* Between two ops, outside every op's latency: the workload's
   housekeeping, and every [maint_every] ops a maintenance tick. *)
let between_ops l =
  (match l.env.housekeeping () with
   | () -> ()
   | exception e -> failure l "housekeeping after op" e);
  if l.index mod l.maint_every = 0 then begin
    let t0 = Stats.now_ns () in
    Citus.Api.maintenance l.env.api;
    Stats.push l.ticks (float_of_int (Stats.now_ns () - t0) /. 1e6)
  end

(* Issue one op: time it at the client boundary, check its result,
   advance the shadow state; an exception counts as a failed op. *)
let step l ~time =
  let op = next_op l in
  let t0 = Stats.now_ns () in
  (match run_call l.env op with
   | r ->
     let dt = float_of_int (Stats.now_ns () - t0) in
     if time then begin
       record (if op.cls = Read then l.reads else l.writes) ~at:t0 dt;
       let s =
         match Hashtbl.find_opt l.kinds op.kind with
         | Some (_, s) -> s
         | None ->
           let s = series () in
           Hashtbl.replace l.kinds op.kind (op.cls, s);
           s
       in
       record s ~at:t0 dt
     end;
     (match op.check r with
      | None -> op.commit ()
      | Some why -> raise (Wrong (Printf.sprintf "op %d: %s" l.index why)))
   | exception e ->
     op.lost ();
     failure l "op" e);
  between_ops l

(* A class's median latency in us: the geometric mean of its kinds'
   medians, weighted by their op counts. One kind gives its median; a
   class whose kinds differ several-fold in cost (TPC-C's reads and
   writes) keeps its p50 out of the gap between them, where a pooled
   median would jump with a few ops either way. *)
let class_p50_us l factor_at cls =
  let num, den =
    Hashtbl.fold
      (fun _ (c, s) (num, den) ->
        if c = cls && Stats.count s.dur > 0 then
          let n = float_of_int (Stats.count s.dur) in
          (num +. (n *. log (Stats.buf_median (on_quiet_host factor_at s))), den +. n)
        else (num, den))
      l.kinds (0.0, 0.0)
  in
  exp (num /. den) /. 1e3

(* --- per-op counters over the count window --- *)

type counters = {
  obs : int array;  (** [obs_names], in order *)
  wal_records : int;
  round_trips : int;
  pool_hits : int;
  pool_misses : int;
  gc : Gc.stat;
}

let planner_tiers =
  Obs.Metric_names.planner_tier_join_order
  :: List.map
       (fun t -> Obs.Metric_names.planner_tier (Citus.Planner.tier_slug t))
       Citus.Planner.
         [ Tier_fast_path; Tier_router; Tier_pushdown; Tier_dml; Tier_reference ]

let obs_names =
  Array.of_list
    (Obs.Metric_names.
       [
         plancache_hits; plancache_misses; plancache_bypass; exec_tasks;
         twopc_started; twopc_delegated_commits;
       ]
    @ planner_tiers)

let counters (env : env) =
  let cluster = env.db.Workloads.Db.cluster in
  let m = Cluster.Topology.metrics cluster in
  let nodes = Cluster.Topology.all_nodes cluster in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  let pool (n : Cluster.Topology.node) =
    Storage.Buffer_pool.stats (Engine.Instance.buffer_pool n.Cluster.Topology.instance)
  in
  {
    obs = Array.map (Obs.Metrics.counter_value m) obs_names;
    wal_records =
      sum (fun n ->
          Txn.Wal.size
            (Txn.Manager.wal
               (Engine.Instance.txn_manager n.Cluster.Topology.instance)));
    round_trips = (Cluster.Topology.net_snapshot cluster).Cluster.Topology.round_trips;
    pool_hits = sum (fun n -> (pool n).Storage.Buffer_pool.hits);
    pool_misses = sum (fun n -> (pool n).Storage.Buffer_pool.misses);
    gc = Gc.quick_stat ();
  }

let count_metrics l ~(before : counters) ~(after : counters)
    (u : Harness.usage) ~ops =
  let n = float_of_int (max 1 ops) in
  let obs name =
    let rec idx i = if obs_names.(i) = name then i else idx (i + 1) in
    let i = idx 0 in
    float_of_int (after.obs.(i) - before.obs.(i))
  in
  let per_op x = x /. n in
  let meters f =
    List.fold_left
      (fun acc (_, m) -> acc +. float_of_int (f m))
      0.0 u.Harness.node_meters
  in
  let hits = obs Obs.Metric_names.plancache_hits in
  let lookups =
    hits +. obs Obs.Metric_names.plancache_misses
    +. obs Obs.Metric_names.plancache_bypass
  in
  let pool_h = float_of_int (after.pool_hits - before.pool_hits) in
  let pool_m = float_of_int (after.pool_misses - before.pool_misses) in
  let gc f = f after.gc -. f before.gc in
  let cpu =
    List.fold_left
      (fun acc (_, m) -> acc +. Engine.Meter.total_cpu_units m)
      0.0 u.Harness.node_meters
  in
  let model =
    Harness.closed_throughput l.env.db u ~n_txns:(max 1 ops)
      ~clients:l.w.model_clients ~think_s:0.0
  in
  let count metric value = { metric; value; clock = "count"; calls = None } in
  let gc_count metric value = { metric; value; clock = "gc"; calls = None } in
  ( model.Harness.tps,
    [
      count "planner.plans_per_op" (per_op (List.fold_left (fun a t -> a +. obs t) 0.0 planner_tiers));
      count "plancache.hit_ratio" (if lookups > 0.0 then hits /. lookups else 0.0);
      count "exec.tasks_per_op" (per_op (obs Obs.Metric_names.exec_tasks));
      count "net.connections_opened_per_op" (per_op (float_of_int u.Harness.connections));
      count "net.round_trips_per_op" (per_op (float_of_int (after.round_trips - before.round_trips)));
      count "net.cross_round_trips_per_op" (per_op (float_of_int u.Harness.cross_rts));
      count "net.rows_shipped_per_op" (per_op (float_of_int u.Harness.rows_shipped));
      count "engine.rows_scanned_per_op" (per_op (meters (fun m -> m.Engine.Meter.rows_scanned)));
      count "engine.index_probes_per_op" (per_op (meters (fun m -> m.Engine.Meter.index_probes)));
      count "engine.rows_written_per_op" (per_op (meters (fun m -> m.Engine.Meter.rows_written)));
      count "engine.statements_per_op" (per_op (meters (fun m -> m.Engine.Meter.statements)));
      count "meter.cpu_units_per_op" (per_op cpu);
      count "storage.pool_miss_ratio" (if pool_h +. pool_m > 0.0 then pool_m /. (pool_h +. pool_m) else 0.0);
      count "txn.wal_records_per_op" (per_op (float_of_int (after.wal_records - before.wal_records)));
      count "twopc.rounds_per_op" (per_op (obs Obs.Metric_names.twopc_started));
      count "twopc.delegated_per_op" (per_op (obs Obs.Metric_names.twopc_delegated_commits));
      gc_count "gc.minor_words_per_op" (per_op (gc (fun s -> s.Gc.minor_words)));
      gc_count "gc.promoted_words_per_op" (per_op (gc (fun s -> s.Gc.promoted_words)));
      gc_count "gc.major_collections_per_kop"
        (1000.0 *. per_op (gc (fun s -> float_of_int s.Gc.major_collections)));
    ] )

(* --- the traced phase: each sampled op runs through the API, then its
   stages and per-task replays run one layer lower at a time --- *)

type tracing = {
  tl : loop;
  tr : Tracer.t;
  st : Citus.State.t;  (** coordinator extension state *)
  conns : (string, Cluster.Connection.t) Hashtbl.t;  (** bench-opened *)
  wsessions : (string, Engine.Instance.session) Hashtbl.t;  (** bench-owned *)
  shapes : (string, Sqlfront.Ast.statement) Hashtbl.t;
  mutable wal : Txn.Wal.t;  (** bench-owned log: never the cluster's *)
  probe_trace : Obs.Trace.t;  (** enabled sink for the span-cost probe *)
  capture : string -> (unit -> unit) -> unit;
      (** receives a re-runnable thunk per idempotent layer call (the
          [layers] subcommand's inputs) *)
}

let node (t : tracing) name =
  Cluster.Topology.find_node t.tl.env.db.Workloads.Db.cluster name

let conn t name =
  match Hashtbl.find_opt t.conns name with
  | Some c -> c
  | None ->
    let cluster = t.tl.env.db.Workloads.Db.cluster in
    let c =
      Cluster.Connection.open_
        ~origin:cluster.Cluster.Topology.coordinator.Cluster.Topology.node_name
        cluster (node t name)
    in
    Hashtbl.replace t.conns name c;
    c

let wsession t name =
  match Hashtbl.find_opt t.wsessions name with
  | Some s -> s
  | None ->
    let s = Engine.Instance.connect (node t name).Cluster.Topology.instance in
    Hashtbl.replace t.wsessions name s;
    s

let round_trip c sql = Cluster.Connection.await (Cluster.Connection.exec_async c sql)

let shape_ast t text =
  match Hashtbl.find_opt t.shapes text with
  | Some s -> s
  | None ->
    let s = Sqlfront.Parser.parse_statement text in
    Hashtbl.replace t.shapes text s;
    s

let plannable = function
  | Sqlfront.Ast.Select_stmt _ | Sqlfront.Ast.Insert _ | Sqlfront.Ast.Update _
  | Sqlfront.Ast.Delete _ ->
    true
  | _ -> false

(* The PK B-tree of a shard table, with its heap. *)
let pk_access (t : tracing) (table, key) =
  let meta = t.tl.env.api.Citus.Api.metadata in
  let shard = Citus.Metadata.shard_for_value meta ~table (List.hd key) in
  let n = node t (Citus.Metadata.placement meta shard.Citus.Metadata.shard_id) in
  let inst = n.Cluster.Topology.instance in
  let tbl =
    Engine.Catalog.find_table (Engine.Instance.catalog inst)
      (Citus.Metadata.shard_name shard)
  in
  let tree =
    List.find_map
      (fun (i : Engine.Catalog.index) ->
        match i.Engine.Catalog.kind with
        | Engine.Catalog.Btree_index { columns; tree }
          when columns = tbl.Engine.Catalog.primary_key ->
          Some tree
        | _ -> None)
      tbl.Engine.Catalog.indexes
  in
  match (tbl.Engine.Catalog.store, tree) with
  | Engine.Catalog.Heap_store heap, Some tree -> (inst, heap, tree)
  | _ -> failwith ("no primary-key B-tree on " ^ tbl.Engine.Catalog.tbl_name)

let zero_clock () = 0.0

(* Replay one task: deparse, then the shard statement through a bench
   connection, a bench-owned worker session, the parser, and the
   executor. Writes run inside BEGIN ... ROLLBACK so replays leave no
   trace in the data. Returns the round-trip time. *)
let replay_task t ~op_index ~parent ~write (task : Citus.Plan.task) =
  let sp parent name f = Tracer.span t.tr ~parent ~op:op_index name f in
  let timed name f =
    if not write then t.capture name (fun () -> ignore (f ()));
    sp parent name (fun _ -> f ())
  in
  let sql, _ = timed "sqlfront.deparse" (fun () -> Sqlfront.Deparse.statement task.Citus.Plan.task_stmt) in
  let in_txn exec f =
    if write then begin
      ignore (exec "BEGIN");
      Fun.protect ~finally:(fun () -> ignore (exec "ROLLBACK")) f
    end
    else f ()
  in
  let c = conn t task.Citus.Plan.task_node in
  let _, d_rt =
    in_txn (round_trip c) (fun () ->
        timed "connection.round_trip" (fun () -> round_trip c sql))
  in
  let s = wsession t task.Citus.Plan.task_node in
  in_txn (Engine.Instance.exec s) (fun () ->
      let _, d_exec = timed "engine.exec" (fun () -> Engine.Instance.exec s sql) in
      let stmt, d_parse =
        timed "sqlfront.shard_parse" (fun () -> Sqlfront.Parser.parse_statement sql)
      in
      let executor =
        let run f = Some (snd (timed "engine.executor" f)) in
        match stmt with
        | Sqlfront.Ast.Select_stmt sel ->
          run (fun () ->
              ignore (Engine.Executor.run_select (Engine.Instance.make_ctx s) sel))
        | Sqlfront.Ast.Update { table; sets; where } ->
          run (fun () ->
              ignore
                (Engine.Executor.run_update (Engine.Instance.make_ctx s) ~table ~sets
                   ~where))
        | _ -> None
      in
      Tracer.record t.tr "connection.self" (float_of_int (d_rt - d_exec));
      Option.iter
        (fun d_ex ->
          Tracer.record t.tr "engine.self" (float_of_int (d_exec - d_parse - d_ex)))
        executor);
  d_rt

let trace_op t ~op_index =
  let l = t.tl in
  let env = l.env in
  let api = env.api in
  let meta = api.Citus.Api.metadata in
  let coord = env.db.Workloads.Db.cluster.Cluster.Topology.coordinator in
  let sp parent name f = Tracer.span t.tr ~parent ~op:op_index name f in
  let timed parent name f =
    t.capture name (fun () -> ignore (f ()));
    sp parent name (fun _ -> f ())
  in
  let op = next_op l in
  ignore
    (sp 0 "op" (fun root ->
         match sp root "api.stmt" (fun _ -> run_call env op) with
         | exception e ->
           op.lost ();
           failure l "traced op" e
         | r, d_stmt ->
           (match op.check r with
            | None -> op.commit ()
            | Some why -> raise (Wrong (Printf.sprintf "op %d: %s" l.index why)));
           let write = op.cls = Write in
           (* front end and planner over the statement's ad-hoc text *)
           let parsed =
             if op.text = "" then None
             else
               Some (timed root "sqlfront.parse" (fun () -> Sqlfront.Parser.parse_statement op.text))
           in
           let plan =
             match parsed with
             | Some (stmt, _) when plannable stmt ->
               Some
                 (timed root "planner.plan" (fun () ->
                      fst
                        (Citus.Planner.plan
                           ~node_ok:(Citus.State.node_available t.st)
                           meta ~catalog:(Engine.Instance.catalog coord.Cluster.Topology.instance)
                           ~local_name:coord.Cluster.Topology.node_name stmt)))
             | _ -> None
           in
           (* plan-cache key derivation and lookup for the op's shape *)
           let cache_ns =
             if op.shape = "" then 0
             else
               let shape = shape_ast t op.shape in
               let key, d_key =
                 timed root "plancache.key" (fun () -> Sqlfront.Deparse.statement shape)
               in
               let _, d_find =
                 timed root "plancache.find" (fun () ->
                     Citus.Plancache.find api.Citus.Api.plancache ~key
                       ~version:(Citus.Metadata.version meta))
               in
               d_key + d_find
           in
           (* reads run once more as their stages; the residual is what
              the API boundary spends outside them *)
           let d_exec =
             match (op.cls, plan) with
             | Read, Some (p, d_plan) ->
               let (res, _), d_exec =
                 timed root "dist_executor.execute" (fun () ->
                     Citus.Dist_executor.execute t.st env.session p)
               in
               (match op.check res with
                | None -> ()
                | Some why ->
                  raise (Wrong (Printf.sprintf "op %d (staged): %s" l.index why)));
               let stages =
                 match op.call with
                 | Execute _ -> cache_ns + d_exec
                 | _ -> snd (Option.get parsed) + d_plan + d_exec
               in
               Tracer.record t.tr "api.residual" (float_of_int (d_stmt - stages));
               Tracer.record t.tr "api.stmt.read" (float_of_int d_stmt);
               Tracer.record t.tr "api.stages.read" (float_of_int stages);
               Some d_exec
             | _ -> None
           in
           let tasks =
             match (plan, parsed) with
             | Some (p, _), _ -> Citus.Plan.tasks_of p
             | None, Some ((Sqlfront.Ast.Call _ as stmt), _) ->
               (* a delegated procedure: one task on its warehouse's node *)
               let table, key = op.pk in
               let shard = Citus.Metadata.shard_for_value meta ~table (List.hd key) in
               [
                 {
                   Citus.Plan.task_node =
                     Citus.Metadata.placement meta shard.Citus.Metadata.shard_id;
                   task_stmt = stmt;
                   task_group = -1;
                   task_shard = -1;
                 };
               ]
             | _ -> []
           in
           let rt_total =
             List.fold_left
               (fun acc task ->
                 acc + fst (sp root "task" (fun id -> replay_task t ~op_index ~parent:id ~write task)))
               0 tasks
           in
           Option.iter
             (fun d -> Tracer.record t.tr "dist_executor.self" (float_of_int (d - rt_total)))
             d_exec;
           (* storage: the op's primary-key lookup *)
           let inst, heap, tree = pk_access t op.pk in
           let pool = Engine.Instance.buffer_pool inst in
           let key = Array.of_list (snd op.pk) in
           let tids, _ =
             timed root "storage.btree_find" (fun () -> Storage.Btree.find_eq ~pool tree key)
           in
           let mgr = Engine.Instance.txn_manager inst in
           let status = Txn.Manager.status mgr in
           let snapshot = Txn.Manager.take_snapshot mgr in
           let rows, _ =
             timed root "storage.heap_fetch" (fun () ->
                 List.filter_map
                   (fun tid -> Storage.Heap.fetch ~pool heap ~tid ~status ~snapshot ~my_xid:None)
                   tids)
           in
           if List.length rows <> 1 then
             raise
               (Wrong
                  (Printf.sprintf "op %d: primary-key lookup found %d visible rows"
                     l.index (List.length rows)));
           (* WAL: records of the op's write shape, on the bench's own log *)
           if write then begin
             let records = op.wal () in
             ignore
               (timed root "txn.wal_append" (fun () ->
                    List.iter (fun r -> ignore (Txn.Wal.append t.wal r)) records));
             if Txn.Wal.size t.wal > 100_000 then t.wal <- Txn.Wal.create ()
           end;
           ignore
             (timed root "obs.span" (fun () ->
                  Obs.Trace.with_span t.probe_trace ~now:zero_clock ~node:"bench"
                    ~kind:"probe" ignore));
           if Obs.Trace.started t.probe_trace >= 4096 then Obs.Trace.reset t.probe_trace;
           (* commit cost: one value-neutral row on one node, then one row
              on each of two nodes (two-phase commit). Each probe is an op
              of its own: one that raises is rolled back and counted as
              failed. *)
           if op_index = 1 || op_index mod l.w.commit_probe_every = 0 then begin
             let exec sql = ignore (Engine.Instance.exec env.session sql) in
             let probe name keys =
               l.attempted <- l.attempted + 1;
               match
                 exec "BEGIN";
                 List.iter (fun k -> exec (env.neutral k)) keys;
                 sp root name (fun _ -> exec "COMMIT")
               with
               | _ -> ()
               | exception e ->
                 (try exec "ROLLBACK" with _ -> ());
                 failure l (name ^ " probe after op") e
             in
             let k1, k2 = env.neutral_keys in
             probe "txn.commit_local" [ k1 ];
             probe "twopc.commit" [ k1; k2 ]
           end));
  between_ops l

let new_tracing ?(capture = fun _ _ -> ()) l =
  let probe_trace = Obs.Trace.create () in
  Obs.Trace.set_enabled probe_trace true;
  {
    tl = l;
    tr = Tracer.create ();
    st = Citus.Api.coordinator_state l.env.api;
    conns = Hashtbl.create 8;
    wsessions = Hashtbl.create 8;
    shapes = Hashtbl.create 16;
    wal = Txn.Wal.create ();
    probe_trace;
    capture;
  }

(* --- one run --- *)

(* Build the cluster and warm it [cfg.setups] times; keep the last. The
   host kernel is sampled before each set-up and after the last. *)
let set_up w cfg =
  let kernel = Host.create () and times = series () in
  let rec go i =
    Gc.compact ();
    Host.sample kernel;
    let t0 = Stats.now_ns () in
    let env = w.setup ~seed:cfg.seed ~scale:cfg.scale in
    let l = new_loop w env ~scale:cfg.scale in
    for _ = 1 to scaled cfg.scale w.warmup do
      step l ~time:false
    done;
    record times ~at:t0 (float_of_int (Stats.now_ns () - t0) /. 1e9);
    if i >= cfg.setups then begin
      Host.sample kernel;
      (l, times, kernel)
    end
    else go (i + 1)
  in
  go 1

(* ops_per_s is the median over this many equal runs of consecutive
   ops, each timed exactly: a stall on the host moves one window, not
   the median. *)
let windows = 10

let run ?trace_dir w cfg =
  let l, setup_times, setup_kernel = set_up w cfg in
  let env = l.env in
  let count_window = scaled cfg.scale w.count_window in
  let start = Stats.now_ns () in
  let span_ns = max 1 (int_of_float (cfg.seconds *. 1e9)) in
  let deadline = ref (start + span_ns) in
  (* each op's turn: the op and the between-ops work after it. The host
     kernel is sampled between turns, so its time, like the heap
     measurement's below, is in no turn. *)
  let turns = series () in
  let kernel = Host.create () in
  let next_sample = ref start in
  let timed_step () =
    if Stats.now_ns () >= !next_sample then begin
      Host.sample kernel;
      next_sample := Stats.now_ns () + Host.period_ns
    end;
    let t0 = Stats.now_ns () in
    step l ~time:true;
    record turns ~at:t0 (float_of_int (Stats.now_ns () - t0))
  in
  let ops () = Stats.count turns.dur in
  (* The count window always runs to its full op count, past the
     deadline if need be: its counts, live heap and model must come from
     the same ops on every commit, a slow one included. *)
  let first = ref None and last = ref None in
  let (), usage =
    Harness.measure env.db (fun () ->
        first := Some (counters env);
        while ops () < count_window do
          timed_step ()
        done;
        last := Some (counters env))
  in
  (* the live heap at the end of the count window, a fixed op count, so a
     faster program that fits more ops into the timed phase does not
     read as a memory regression; the clock stops for the collection *)
  let t_gc = Stats.now_ns () in
  Gc.full_major ();
  let heap_mb = float_of_int ((Gc.stat ()).Gc.live_words * 8) /. 1e6 in
  deadline := !deadline + (Stats.now_ns () - t_gc);
  (* past the deadline, keep going until both op classes and a
     maintenance tick have been seen (only tiny smoke runs need this) *)
  let starved () =
    Stats.count l.reads.dur = 0 || Stats.count l.writes.dur = 0 || Stats.count l.ticks = 0
  in
  while Stats.now_ns () < !deadline || starved () do
    timed_step ()
  done;
  let model, counts =
    count_metrics l ~before:(Option.get !first) ~after:(Option.get !last) usage
      ~ops:count_window
  in
  (* wall-clock time scaled to the quiet reference host (see Host) *)
  let factor_at = Host.factor_at kernel in
  let rates =
    let turn = on_quiet_host factor_at turns in
    let per = max 1 (ops () / windows) in
    List.init (max 1 (ops () / per)) (fun k ->
        let elapsed = ref 0.0 in
        for i = k * per to ((k + 1) * per) - 1 do
          elapsed := !elapsed +. turn.Stats.a.(i)
        done;
        float_of_int per /. (!elapsed /. 1e9))
  in
  let tail_us s p = Stats.windowed_percentile (on_quiet_host factor_at s) p /. 1e3 in
  let v ?calls clock metric value = { metric; value; clock; calls } in
  let host = Host.factor kernel and setup_host = Host.factor setup_kernel in
  let e2e =
    [
      v "host" "ops_per_s" (Stats.median rates);
      v "host" "read_p50_us" (class_p50_us l factor_at Read);
      v "host" "read_tail_us" (tail_us l.reads w.read_tail);
      v "host" "write_p50_us" (class_p50_us l factor_at Write);
      v "host" "write_tail_us" (tail_us l.writes w.write_tail);
      v "host" "setup_s"
        (Stats.buf_median (on_quiet_host (Host.factor_at setup_kernel) setup_times));
      v "gc" "heap_live_mb" heap_mb;
      v "virtual" "model_ops_per_s" model;
    ]
  in
  let host_note =
    Printf.sprintf
      "host kernel_ns=%.0f samples=%d factor=%.3f setup_factor=%.3f reference_ns=%.0f"
      (Host.reference_ns /. host) kernel.Host.n host setup_host
      Host.reference_ns
  in
  let maint =
    v "wall" "maintenance.ms_per_tick" (Stats.buf_median l.ticks) ~calls:(Stats.count l.ticks)
  in
  let layers, malformed, notes =
    if not cfg.traced then ([], 0, [])
    else begin
      let t = new_tracing l in
      let tdeadline = Stats.now_ns () + (span_ns / 5) in
      let op_index = ref 0 in
      let seen name = snd (Tracer.median_ns t.tr name) > 0 in
      while
        Stats.now_ns () < tdeadline
        || not (seen "dist_executor.execute" && seen "txn.wal_append")
      do
        incr op_index;
        trace_op t ~op_index:!op_index
      done;
      Option.iter
        (fun dir ->
          Tracer.write_jsonl t.tr (Filename.concat dir ("trace_" ^ w.name ^ ".jsonl")))
        trace_dir;
      let ns name =
        let x, calls = Tracer.median_ns t.tr name in
        v "wall" (name ^ "_ns") x ~calls
      in
      let words name =
        let x, calls = Tracer.median_words t.tr name in
        v "gc" (name ^ "_words") x ~calls
      in
      let stmt_ns, stmt_n = Tracer.median_ns t.tr "api.stmt" in
      let untraced_p50 =
        Stats.median_of_sorted
          (Stats.sorted_array
             (Array.append (Array.sub l.reads.dur.Stats.a 0 l.reads.dur.Stats.n)
                (Array.sub l.writes.dur.Stats.a 0 l.writes.dur.Stats.n)))
      in
      ( [
          v "wall" "api.stmt_ns" stmt_ns ~calls:stmt_n;
          words "api.stmt";
          ns "api.residual";
          ns "sqlfront.parse";
          words "sqlfront.parse";
          ns "sqlfront.deparse";
          ns "sqlfront.shard_parse";
          ns "planner.plan";
          words "planner.plan";
          ns "plancache.key";
          ns "plancache.find";
          ns "dist_executor.execute";
          ns "dist_executor.self";
          ns "connection.round_trip";
          ns "connection.self";
          ns "engine.exec";
          ns "engine.executor";
          ns "engine.self";
          ns "storage.btree_find";
          ns "storage.heap_fetch";
          ns "txn.wal_append";
          ns "txn.commit_local";
          ns "twopc.commit";
          ns "obs.span";
          v "wall" "trace.overhead_frac" ((stmt_ns /. untraced_p50) -. 1.0) ~calls:stmt_n;
        ],
        List.length (Tracer.malformed_ops t.tr),
        (* on reads, the stages plus the residual should account for the
           statement: a sum of medians, so close but not exact *)
        let stmt, n = Tracer.median_ns t.tr "api.stmt.read" in
        let stages, _ = Tracer.median_ns t.tr "api.stages.read" in
        let residual, _ = Tracer.median_ns t.tr "api.residual" in
        [
          Printf.sprintf
            "accounting reads=%d api.stmt_ns=%.0f stages_ns=%.0f residual_ns=%.0f \
             covered=%.3f"
            n stmt stages residual ((stages +. residual) /. stmt);
        ] )
    end
  in
  Option.iter (fun why -> raise (Wrong ("final check: " ^ why))) (env.final_check ());
  (* Report exactly BENCHMARK.json's metrics, in its order: a name
     missing from either side is a defect of the benchmark. *)
  let values = e2e @ (maint :: counts) @ layers in
  let spec_names l = List.map (fun (m : Spec.metric) -> m.Spec.name) l in
  let reported = List.map (fun x -> x.metric) values in
  let expected = spec_names (if cfg.traced then Spec.all_metrics else Spec.end_to_end) in
  let missing = List.filter (fun n -> not (List.mem n reported)) expected in
  let unknown = List.filter (fun n -> not (List.mem n (spec_names Spec.all_metrics))) reported in
  if missing <> [] || unknown <> [] then
    failwith
      (Printf.sprintf "metrics differ from BENCHMARK.json: missing [%s], unknown [%s]"
         (String.concat " " missing) (String.concat " " unknown));
  let ordered =
    List.filter_map
      (fun n -> List.find_opt (fun x -> x.metric = n) values)
      (spec_names Spec.all_metrics)
  in
  {
    workload = w.name;
    attempted = l.attempted;
    failed = l.failed;
    values = ordered;
    malformed;
    notes = host_note :: notes;
  }
