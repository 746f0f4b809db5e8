(* Chaos kit: what the seeded fault matrices (test_chaos, test_mx,
   test_gray, test_snapshot) share. Every matrix runs the same story: a
   cluster holding an [accounts] table of [initial_balance] per key, a
   pgbench-style transfer workload driven one [clock_step] of virtual
   time apart under a seeded fault schedule, quiescence, and then the
   post-storm invariants of §3.7 — the total is conserved, nothing stays
   prepared or pinned, breakers close, replicas agree, and the
   observability layer balances. Each run is a pure function of its
   seed, so every check is tagged [seed N] and replays by that seed.

   A new matrix declares only its deltas: build the fixture with
   [accounts] (key count, replication, config overrides, one-transaction
   load, post-load [setup]), pick its storm ([schedule_storm] for
   crashes and partitions, or its own), wrap [transfer]'s statements if
   it needs to (gray times each one against its deadline), add its own
   checks after [check_invariants], and list its extra observable parts
   for [test_reproducible]. RNG streams are [rng seed salt]: the
   workload always draws from salt 0x0b5e, each storm from its own. The
   matrix width is [CHAOS_SEEDS] for every matrix; unset, each keeps its
   own default. *)

let initial_balance = 100
let clock_step = 0.25

(* crash/partition storms run this many transfers *)
let n_txns = 40

type outcome = Committed | Failed | Unknown

let outcome_name = function
  | Committed -> "committed"
  | Failed -> "failed"
  | Unknown -> "unknown"

let exec s sql = Engine.Instance.exec s sql
let rollback_quietly s = try ignore (exec s "ROLLBACK") with _ -> ()

let one_int s sql =
  match (exec s sql).Engine.Instance.rows with
  | [ [| Datum.Int i |] ] -> i
  | rows ->
    Alcotest.fail
      (Printf.sprintf "expected one int from %S, got %d rows" sql
         (List.length rows))

let fault_of cluster =
  match Cluster.Topology.fault cluster with
  | Some f -> f
  | None -> Alcotest.fail "cluster has no fault plan"

let counter cluster name =
  Obs.Metrics.counter_value (Cluster.Topology.metrics cluster) name

let tag seed m = Printf.sprintf "[seed %d] %s" seed m
let rng seed salt = Random.State.make [| seed; salt |]
let pick rng l = List.nth l (Random.State.int rng (List.length l))

let worker_names cluster =
  List.map
    (fun (n : Cluster.Topology.node) -> n.Cluster.Topology.node_name)
    cluster.Cluster.Topology.workers

(* --- the accounts fixture --- *)

type fixture = {
  cluster : Cluster.Topology.t;
  citus : Citus.Api.t;
  n_keys : int;
}

let expected_total f = f.n_keys * initial_balance

let load_accounts ?(one_txn = false) s ~n_keys =
  ignore
    (exec s "CREATE TABLE accounts (key bigint PRIMARY KEY, balance bigint)");
  ignore (exec s "SELECT create_distributed_table('accounts', 'key')");
  if one_txn then ignore (exec s "BEGIN");
  for k = 0 to n_keys - 1 do
    ignore
      (exec s
         (Printf.sprintf "INSERT INTO accounts (key, balance) VALUES (%d, %d)"
            k initial_balance))
  done;
  if one_txn then ignore (exec s "COMMIT")

(* Three workers, 8 shards. The seed drives the fault plan and the
   scheduler's ready-queue tiebreaks, so fiber interleavings inside the
   executor / 2PC / move fan-outs are a fuzzed dimension of the storm.
   [configure] edits the coordinator's config before the load; [setup]
   runs on the loading session afterwards. *)
let accounts ?(n_keys = 24) ?(configure = ignore) ?one_txn
    ?(setup = fun _ _ -> ()) ~seed ~replication () =
  let cluster =
    Cluster.Topology.create ~workers:3 ~fault_seed:seed ~sched_seed:seed ()
  in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  Citus.Api.set_replication_factor citus replication;
  configure (Citus.Api.coordinator_state citus).Citus.State.config;
  let s = Citus.Api.connect citus in
  load_accounts ?one_txn s ~n_keys;
  setup citus s;
  { cluster; citus; n_keys }

(* storms run fully traced: span conservation and the span stream's
   reproducibility are part of the checked surface *)
let trace_on f = Obs.Trace.set_enabled (Cluster.Topology.trace f.cluster) true
let tick f = Sim.Clock.advance f.cluster.Cluster.Topology.clock clock_step

let node_of ?(table = "accounts") citus k =
  let meta = citus.Citus.Api.metadata in
  Citus.Metadata.placement meta
    (Citus.Metadata.shard_for_value meta ~table (Datum.Int k))
      .Citus.Metadata.shard_id

(* [first] and the next key whose primary placement is on another
   worker: a transfer between them is a genuine multi-node 2PC. *)
let cross_node_keys ?table ?(first = 0) citus =
  let rec find k =
    if k > first + 1000 then Alcotest.fail "no key on a second node"
    else if String.equal (node_of ?table citus k) (node_of ?table citus first)
    then find (k + 1)
    else k
  in
  (first, find (first + 1))

let prepared_count cluster node =
  List.length
    (Txn.Manager.prepared_transactions
       (Engine.Instance.txn_manager
          (Cluster.Topology.find_node cluster node).Cluster.Topology.instance))

(* --- the workload --- *)

(* A client session; a node restart kills it, and the next use
   reconnects. *)
type client = {
  connect : unit -> Engine.Instance.session;
  mutable session : Engine.Instance.session;
}

let client ?node citus =
  let connect () =
    match node with
    | None -> Citus.Api.connect citus
    | Some n -> Citus.Api.connect_via citus n
  in
  { connect; session = connect () }

let session c =
  if not (Engine.Instance.session_alive c.session) then
    c.session <- c.connect ();
  c.session

let draw_transfer rng ~n_keys =
  let k1 = Random.State.int rng n_keys in
  let k2 = (k1 + 1 + Random.State.int rng (n_keys - 1)) mod n_keys in
  let amount = 1 + Random.State.int rng 10 in
  (k1, k2, amount)

let transfer_stmts ~k1 ~k2 ~amount =
  [
    ("BEGIN", "BEGIN");
    ( Printf.sprintf "debit %d" k1,
      Printf.sprintf "UPDATE accounts SET balance = balance - %d WHERE key = %d"
        amount k1 );
    ( Printf.sprintf "credit %d" k2,
      Printf.sprintf "UPDATE accounts SET balance = balance + %d WHERE key = %d"
        amount k2 );
  ]

(* A transfer left open before COMMIT, for targeted tests that arm a
   fault first. *)
let begin_transfer s ~k1 ~k2 ~amount =
  List.iter
    (fun (_, sql) -> ignore (exec s sql))
    (transfer_stmts ~k1 ~k2 ~amount)

(* One transfer. An error before COMMIT is a clean abort (Failed); an
   error during COMMIT leaves the outcome undetermined at the client
   (Unknown) — 2PC recovery decides it later. [wrap] runs each
   statement, labelled "BEGIN", "debit k", "credit k" or "COMMIT". *)
let transfer ?(wrap = fun ~label:_ run -> run ()) c ~k1 ~k2 ~amount =
  let s = session c in
  let run (label, sql) = ignore (wrap ~label (fun () -> exec s sql)) in
  match List.iter run (transfer_stmts ~k1 ~k2 ~amount) with
  | () -> (
    match run ("COMMIT", "COMMIT") with
    | () -> Committed
    | exception _ ->
      rollback_quietly s;
      Unknown)
  | exception _ ->
    rollback_quietly s;
    Failed

(* --- the crash/partition schedule --- *)

(* Which links partitions may cut: coordinator<->worker only, or any
   ordered pair of nodes (with many coordinators every link matters). *)
type links = Coordinator_links | Any_links

(* Crashes with WAL-replay restarts of any node, asymmetric partitions
   that heal on their own, background request/reply loss, and sometimes
   a worker dying right between PREPARE and COMMIT PREPARED. *)
let schedule_storm ?(links = Coordinator_links) f rng =
  let fault = fault_of f.cluster in
  let workers = worker_names f.cluster in
  let horizon = float_of_int n_txns *. clock_step in
  let pick l = pick rng l in
  let nodes = "coordinator" :: workers in
  for _ = 1 to 3 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let down_for = 0.5 +. Random.State.float rng 2.0 in
    Sim.Fault.schedule_crash fault ~at ~down_for (pick nodes)
  done;
  for _ = 1 to 3 do
    let at = Random.State.float rng (horizon *. 0.8) in
    let heal_after = 0.5 +. Random.State.float rng 2.0 in
    let from_, to_ =
      match links with
      | Coordinator_links ->
        let w = pick workers in
        if Random.State.bool rng then ("coordinator", w) else (w, "coordinator")
      | Any_links ->
        let from_ = pick nodes in
        (from_, pick (List.filter (fun n -> not (String.equal n from_)) nodes))
    in
    Sim.Fault.schedule_partition ~heal_after fault ~at ~from_ ~to_
  done;
  Sim.Fault.set_drop_rate fault
    ~request:(Random.State.float rng 0.03)
    ~reply:(Random.State.float rng 0.03);
  if Random.State.bool rng then
    Sim.Fault.arm_crash_after fault ~node:(pick workers)
      ~matching:"PREPARE TRANSACTION"
      ~lose_reply:(Random.State.bool rng) ()

(* --- quiescence --- *)

(* Let recovery settle: 30s of virtual time, then three maintenance
   passes — recovery and repair are idempotent, and three drain
   multi-step resolutions (commit prepared, then GC, then
   re-replication). *)
let recover f =
  Sim.Clock.advance f.cluster.Cluster.Topology.clock 30.0;
  for _ = 1 to 3 do
    Citus.Api.maintenance f.citus
  done

(* End the storm. [bounce] crashes and restarts every node: lost round
   trips can leave orphaned in-memory transactions holding locks on
   workers, and a restart sheds them while everything durable (prepared
   transactions, commit records, committed rows) survives WAL replay. *)
let quiesce ~bounce f =
  let fault = fault_of f.cluster in
  Sim.Fault.quiesce fault;
  if bounce then
    List.iter
      (fun (n : Cluster.Topology.node) ->
        Sim.Fault.crash_now fault n.Cluster.Topology.node_name;
        Sim.Fault.restart_now fault n.Cluster.Topology.node_name)
      (Cluster.Topology.all_nodes f.cluster);
  recover f

(* Touch every key, so every replica takes a write and half-open or
   slow-tripped breakers close through real successes. The +0 update is
   balance-neutral by construction. *)
let write_pass f =
  let s = Citus.Api.connect f.citus in
  for k = 0 to f.n_keys - 1 do
    ignore
      (Citus.Api.exec_with_retries f.citus s
         (Printf.sprintf
            "UPDATE accounts SET balance = balance + 0 WHERE key = %d" k))
  done

let final_total f =
  one_int (Citus.Api.connect f.citus) "SELECT sum(balance) FROM accounts"

(* Quiesce, write pass, one more maintenance pass; the final total. *)
let settle ~bounce f =
  quiesce ~bounce f;
  write_pass f;
  Citus.Api.maintenance f.citus;
  final_total f

(* --- the shared post-storm invariants --- *)

let check_no_prepared ?(msg = Fun.id) cluster =
  List.iter
    (fun (n : Cluster.Topology.node) ->
      let name = n.Cluster.Topology.node_name in
      Alcotest.(check int)
        (msg ("no orphaned prepared transactions on " ^ name))
        0 (prepared_count cluster name))
    (Cluster.Topology.all_nodes cluster)

let check_replicas_identical ~msg f =
  let meta = f.citus.Citus.Api.metadata in
  let rows_on shard_table node =
    let inst =
      (Cluster.Topology.find_node f.cluster node).Cluster.Topology.instance
    in
    (exec (Engine.Instance.connect inst)
       (Printf.sprintf "SELECT key, balance FROM %s ORDER BY key" shard_table))
      .Engine.Instance.rows
  in
  let show rows =
    String.concat "; "
      (List.map
         (fun row ->
           String.concat ","
             (Array.to_list (Array.map (Format.asprintf "%a" Datum.pp) row)))
         rows)
  in
  List.iter
    (fun (sh : Citus.Metadata.shard) ->
      let shard_table = Citus.Metadata.shard_name sh in
      match Citus.Metadata.placements meta sh.Citus.Metadata.shard_id with
      | [] -> Alcotest.fail (msg (shard_table ^ " lost every placement"))
      | first :: rest ->
        let reference = rows_on shard_table first in
        List.iter
          (fun node ->
            let got = rows_on shard_table node in
            if got <> reference then
              Alcotest.fail
                (msg
                   (Printf.sprintf "%s diverged: %s has [%s], %s has [%s]"
                      shard_table first (show reference) node (show got))))
          rest)
    (Citus.Metadata.shards_of meta "accounts")

(* The observability layer survives the storm too: every span opened was
   closed (exceptions included), none is left open, no gauge went
   negative, and the breaker-trip gauge settled with the breakers. *)
let check_obs_conservation ~msg cluster =
  let obs = Cluster.Topology.obs cluster in
  Alcotest.(check int)
    (msg "every span opened was closed")
    (Obs.Trace.started obs.Obs.trace)
    (Obs.Trace.finished obs.Obs.trace);
  Alcotest.(check int) (msg "no span left open") 0
    (Obs.Trace.open_count obs.Obs.trace);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (msg (Printf.sprintf "gauge %s non-negative (%f)" name v))
        true (v >= 0.0))
    (Obs.Metrics.snapshot obs.Obs.metrics).Obs.Metrics.s_gauges;
  Alcotest.(check (float 0.0))
    (msg "breaker-trip gauge settled")
    0.0
    (Obs.Metrics.gauge_value obs.Obs.metrics Obs.Metric_names.breaker_tripped);
  Alcotest.(check bool)
    (msg "rebalance moves: completed <= started")
    true
    (counter cluster Obs.Metric_names.rebalance_moves_completed
    <= counter cluster Obs.Metric_names.rebalance_moves_started)

(* What correctness means after quiescence, whatever the storm was:
   transfers are balance-preserving, so [total] must be exactly the
   initial total no matter which subset committed. *)
let check_invariants ~seed ~total f =
  let msg = tag seed in
  Alcotest.(check int) (msg "total balance conserved") (expected_total f) total;
  check_no_prepared ~msg f.cluster;
  (* every coordinating node (any node, under MX) must have released its
     sessions, drained its commit records in its own gid namespace and
     closed its breakers *)
  List.iter
    (fun (st : Citus.State.t) ->
      let on what =
        msg (what ^ " on " ^ st.Citus.State.local.Cluster.Topology.node_name)
      in
      Alcotest.(check int) (on "no txn conns pinned") 0
        (Citus.State.leaked_txn_conns st);
      Alcotest.(check int) (on "no prepared pairs pinned") 0
        (Citus.State.leaked_prepared st);
      Alcotest.(check int) (on "commit records drained") 0
        (Citus.Twopc.commit_record_count st);
      List.iter
        (fun (r : Citus.Health.node_report) ->
          Alcotest.(check string)
            (on ("breaker to " ^ r.Citus.Health.nr_node ^ " closed"))
            "closed"
            (Citus.Health.breaker_name
               (Citus.Health.breaker_state st.Citus.State.health
                  r.Citus.Health.nr_node)))
        (Citus.Health.report st.Citus.State.health))
    f.citus.Citus.Api.states;
  Alcotest.(check int) (msg "no inactive placements") 0
    (List.length
       (Citus.Metadata.inactive_placements f.citus.Citus.Api.metadata));
  check_replicas_identical ~msg f;
  check_obs_conservation ~msg f.cluster

(* A storm that failed every transfer would satisfy atomicity
   vacuously. *)
let check_some_committed ~seed outcomes =
  Alcotest.(check bool)
    (tag seed "some transfers committed")
    true
    (List.exists (fun o -> o = Committed) outcomes)

(* --- the seed matrix --- *)

(* CHAOS_SEEDS=n runs n seeds in every matrix; unset, [default]. *)
let width ~default =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ ->
      invalid_arg
        (Printf.sprintf "CHAOS_SEEDS must be a positive integer, got %S" v))

let seed_cases ?(name = Printf.sprintf "seed %d") ~first n test =
  List.init n (fun i ->
      let seed = first + i in
      Alcotest.test_case (name seed) `Quick (test seed))

(* --- bit-for-bit reproducibility --- *)

(* Everything a run exposes, rendered: the fault trace, metric snapshot
   and span tree every matrix shares, then the matrix's own [parts]. *)
let observable f parts =
  let obs = Cluster.Topology.obs f.cluster in
  ("fault trace", Sim.Fault.trace (fault_of f.cluster))
  :: ( "metric snapshot",
       [ Obs.Metrics.render (Obs.Metrics.snapshot obs.Obs.metrics) ] )
  :: ("span tree", Obs.Trace.render_tree (Obs.Trace.spans obs.Obs.trace))
  :: parts

(* [observe seed] twice must agree on every part; [other] must draw a
   different fault schedule. *)
let test_reproducible ~observe ~seed ~other () =
  let a = observe seed in
  List.iter2
    (fun (name, x) (_, y) ->
      Alcotest.(check (list string)) ("same " ^ name) x y)
    a (observe seed);
  Alcotest.(check bool) "different seed, different schedule" true
    (List.assoc "fault trace" a <> List.assoc "fault trace" (observe other))
