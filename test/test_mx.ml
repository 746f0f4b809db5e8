(* Citus MX chaos (§3.2.1): with the catalog visible on every worker,
   any node coordinates distributed transactions in its own gid
   namespace. The seeded storm runs pgbench-style balance transfers
   round-robined across ALL coordinating nodes while nodes — including
   the bootstrap coordinator and the very workers originating
   transactions — crash, partition (any ordered pair of nodes), and lose
   messages mid-fan-out.

   On top of the kit's post-storm invariants (each gid resolves against
   its origin's commit records, so commit records must drain on every
   coordinating node), each seed checks:

   - no torn snapshot reads: every mid-storm sum that returned at all
     returned the conserved total (citus.consistency = snapshot);
   - one catalog: every node running the extension holds the cluster's
     one [Metadata.t], never a copy;
   - bit-identical same-seed replay of the whole observable surface. *)

open Chaos_kit

(* The MX cluster: install, load, then enable metadata sync so every
   worker coordinates. The consistency knob is set through a WORKER
   session after the sync — citus_set_config must propagate it to every
   installed node. *)
let make_cluster ~seed ~replication =
  let setup citus s =
    ignore (exec s "SELECT citus_enable_metadata_sync()");
    let w =
      Citus.Api.connect_via citus
        (List.hd citus.Citus.Api.cluster.Cluster.Topology.workers)
    in
    ignore (exec w "SELECT citus_set_config('consistency', 'snapshot')");
    List.iter
      (fun (st : Citus.State.t) ->
        Alcotest.(check string)
          (Printf.sprintf "consistency propagated to %s"
             st.Citus.State.local.Cluster.Topology.node_name)
          "snapshot"
          (Citus.State.consistency_to_string
             st.Citus.State.config.Citus.State.consistency))
      citus.Citus.Api.states
  in
  accounts ~setup ~seed ~replication ()

(* --- one full storm: one session per coordinating node --- *)

let run_storm ~seed () =
  let f = make_cluster ~seed ~replication:2 in
  trace_on f;
  let wl = rng seed 0x0b5e in
  (* nobody is special: the bootstrap coordinator and the
     transaction-originating workers are equally fair game *)
  schedule_storm ~links:Any_links f (rng seed 0x3fa9);
  let clients =
    List.map
      (fun n -> (n, client ~node:n f.citus))
      (Cluster.Topology.data_nodes f.cluster)
  in
  let torn_reads = ref 0 in
  let outcomes = ref [] in
  for i = 1 to n_txns do
    tick f;
    let node, c = List.nth clients (i mod List.length clients) in
    let k1, k2, amount = draw_transfer wl ~n_keys:f.n_keys in
    let o = transfer c ~k1 ~k2 ~amount in
    outcomes := (node.Cluster.Topology.node_name, o) :: !outcomes;
    (* mid-storm snapshot reads from a different coordinator than the
       one that just wrote: any sum that returns at all must be the
       conserved total — a torn read is an invariant violation, not a
       transient *)
    if i mod 5 = 0 then begin
      let _, rc = List.nth clients ((i + 1) mod List.length clients) in
      let s = session rc in
      match one_int s "SELECT sum(balance) FROM accounts" with
      | total -> if total <> expected_total f then incr torn_reads
      | exception _ -> ()
    end;
    if i = n_txns / 2 then (try Citus.Api.maintenance f.citus with _ -> ())
  done;
  let total = settle ~bounce:true f in
  (f, List.rev !outcomes, total, !torn_reads)

(* Every node running the extension plans against the cluster's one
   catalog and runs under its one settings record: physically the same
   values, never copies. *)
let check_one_catalog ~seed f =
  List.iter
    (fun (st : Citus.State.t) ->
      let node = st.Citus.State.local.Cluster.Topology.node_name in
      Alcotest.(check bool)
        (tag seed ("one catalog on " ^ node))
        true
        (st.Citus.State.metadata == f.citus.Citus.Api.metadata);
      Alcotest.(check bool)
        (tag seed ("one config on " ^ node))
        true
        (st.Citus.State.config == f.citus.Citus.Api.config))
    f.citus.Citus.Api.states

let test_seed seed () =
  let f, outcomes, total, torn = run_storm ~seed () in
  check_invariants ~seed ~total f;
  check_one_catalog ~seed f;
  Alcotest.(check int) (tag seed "no torn snapshot reads") 0 torn;
  check_some_committed ~seed (List.map snd outcomes);
  (* the whole point of MX: transactions were coordinated off the
     bootstrap coordinator *)
  Alcotest.(check bool)
    (tag seed "workers coordinated transactions")
    true
    (counter f.cluster Obs.Metric_names.mx_worker_coordinated_txns > 0);
  (* a worker's transfers touch its own shards in the session's own
     transaction: local execution really ran under the storm *)
  Alcotest.(check bool)
    (tag seed "local execution ran")
    true
    (counter f.cluster Obs.Metric_names.exec_local_tasks > 0)

let observe seed =
  let f, outcomes, total, torn = run_storm ~seed () in
  observable f
    [
      ( "(node, outcome) stream",
        List.map (fun (n, o) -> n ^ ":" ^ outcome_name o) outcomes );
      ("total", [ string_of_int total ]);
      ("torn-read count", [ string_of_int torn ]);
    ]

(* --- targeted: the origin worker crashes mid-fan-out --- *)

(* A worker-coordinated transfer whose COMMIT PREPARED fan-out is cut
   off, then the ORIGIN worker itself crashes. The participants hold
   prepared transactions in the origin's gid namespace; while the origin
   is down nobody may guess the outcome (its commit records are the
   only truth), and once it restarts, recovery must finish the commit
   from the origin's records. *)
let test_origin_crash_mid_fanout () =
  let f = make_cluster ~seed:77 ~replication:1 in
  let citus = f.citus in
  let fault = fault_of f.cluster in
  let origin = List.hd f.cluster.Cluster.Topology.workers in
  let origin_name = origin.Cluster.Topology.node_name in
  (* two keys on two nodes, neither the origin: a pure fan-out 2PC *)
  let foreign k = not (String.equal (node_of citus k) origin_name) in
  let k1 =
    let rec go k = if foreign k then k else go (k + 1) in
    go 0
  in
  let k2 =
    let rec go k =
      if foreign k && not (String.equal (node_of citus k) (node_of citus k1))
      then k
      else go (k + 1)
    in
    go (k1 + 1)
  in
  let origin_st =
    List.find
      (fun (st : Citus.State.t) ->
        String.equal st.Citus.State.local.Cluster.Topology.node_name
          origin_name)
      citus.Citus.Api.states
  in
  let s = Citus.Api.connect_via citus origin in
  begin_transfer s ~k1 ~k2 ~amount:7;
  (* cut the fan-out: both participants' COMMIT PREPARED will fail after
     the origin's local commit (commit records durable on the origin) *)
  Citus.State.inject_failure origin_st ~node:(node_of citus k1)
    ~matching:"COMMIT PREPARED";
  Citus.State.inject_failure origin_st ~node:(node_of citus k2)
    ~matching:"COMMIT PREPARED";
  ignore (exec s "COMMIT");
  Citus.State.clear_failures origin_st;
  Alcotest.(check bool) "commit records durable on the origin worker" true
    (Citus.Twopc.commit_record_count origin_st > 0);
  (* both participants still hold prepared txns in the origin's namespace *)
  let prepared_on k = prepared_count f.cluster (node_of citus k) in
  Alcotest.(check int) "participant 1 in doubt" 1 (prepared_on k1);
  Alcotest.(check int) "participant 2 in doubt" 1 (prepared_on k2);
  (* now the origin crashes: its commit records are unreachable *)
  Sim.Fault.crash_now fault origin_name;
  (try Citus.Api.maintenance citus with _ -> ());
  Alcotest.(check int)
    "origin down: participant 1 stays in doubt (no guessing)" 1
    (prepared_on k1);
  Alcotest.(check int)
    "origin down: participant 2 stays in doubt (no guessing)" 1
    (prepared_on k2);
  (* origin returns: recovery finishes the commit from its records *)
  Sim.Fault.restart_now fault origin_name;
  recover f;
  let s = Citus.Api.connect citus in
  Alcotest.(check int) "debit committed by recovery" (initial_balance - 7)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k1));
  Alcotest.(check int) "credit committed by recovery" (initial_balance + 7)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2));
  check_no_prepared f.cluster;
  Alcotest.(check int) "origin's commit records drained" 0
    (Citus.Twopc.commit_record_count origin_st);
  Alcotest.(check bool) "foreign-namespace resolutions counted" true
    (counter f.cluster Obs.Metric_names.mx_foreign_gids_resolved >= 0)

(* --- targeted: the bootstrap coordinator is down, a worker coordinates --- *)

let test_worker_coordinates_without_coordinator () =
  let f = make_cluster ~seed:78 ~replication:1 in
  let fault = fault_of f.cluster in
  Sim.Fault.crash_now fault "coordinator";
  let origin = List.hd f.cluster.Cluster.Topology.workers in
  let s = Citus.Api.connect_via f.citus origin in
  (* a genuine multi-node 2PC, planned and committed with the bootstrap
     coordinator dead *)
  let k1, k2 = cross_node_keys f.citus in
  begin_transfer s ~k1 ~k2 ~amount:5;
  ignore (exec s "COMMIT");
  Alcotest.(check int) "debit visible via the worker" (initial_balance - 5)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k1));
  Alcotest.(check int) "credit visible via the worker" (initial_balance + 5)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2));
  Sim.Fault.restart_now fault "coordinator";
  recover f;
  check_no_prepared f.cluster;
  Alcotest.(check bool) "counted as worker-coordinated" true
    (counter f.cluster Obs.Metric_names.mx_worker_coordinated_txns > 0)

let test_metadata_sync_knob () =
  (* the set_config spelling of metadata sync: idempotent 'on' (also
     after the UDF already ran), and 'off' is a clean typed error —
     demotion is unsupported, never a half-synced cluster *)
  let cluster =
    Cluster.Topology.create ~workers:2 ~fault_seed:1 ~sched_seed:1 ()
  in
  let citus = Citus.Api.install ~shard_count:4 cluster in
  let s = Citus.Api.connect citus in
  ignore (exec s "SELECT citus_set_config('enable_metadata_sync', 'on')");
  ignore (exec s "SELECT citus_set_config('enable_metadata_sync', 'on')");
  Alcotest.(check int) "every node installed"
    (List.length (Cluster.Topology.all_nodes cluster))
    (List.length citus.Citus.Api.states);
  List.iter
    (fun (n : Cluster.Topology.node) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s promoted" n.Cluster.Topology.node_name)
        true
        (n.Cluster.Topology.role = Cluster.Topology.Coordinator))
    (Cluster.Topology.data_nodes cluster);
  match exec s "SELECT citus_set_config('enable_metadata_sync', 'off')" with
  | _ -> Alcotest.fail "disabling metadata sync must be rejected"
  | exception _ -> ()

let () =
  Alcotest.run "mx"
    [
      ("seed-matrix", seed_cases ~first:21 (width ~default:6) test_seed);
      ( "reproducibility",
        [
          Alcotest.test_case "same seed, same storm" `Quick
            (test_reproducible ~observe ~seed:25 ~other:26);
        ] );
      ( "targeted-mx",
        [
          Alcotest.test_case "origin worker crash mid-fan-out" `Quick
            test_origin_crash_mid_fanout;
          Alcotest.test_case "worker coordinates without the coordinator"
            `Quick test_worker_coordinates_without_coordinator;
          Alcotest.test_case "metadata sync via set_config" `Quick
            test_metadata_sync_knob;
        ] );
    ]
