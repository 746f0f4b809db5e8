(* Tail latency under a gray failure: p50/p95/p99 of single-shard reads
   while one replica of every shard browns out (replies land late, the
   node never dies), hedging off vs on — same seed, same workload, same
   stall. The tail collapses from the stall's extra latency to roughly
   the hedge threshold; the median, served by healthy replicas either
   way, barely moves. Writes BENCH_tail.json. *)

let n_keys = 32
let n_reads = 200
let stall_extra = 0.25
let hedge_on = 0.02
let seed = 7

type summary = {
  mode : string;
  p50 : float;
  p95 : float;
  p99 : float;
  max_ : float;
  mean : float;
  hedged : int;
}

(* nearest-rank percentile over a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let run_mode ~mode ~hedge_threshold () =
  let cluster =
    Cluster.Topology.create ~workers:3 ~fault_seed:seed ~sched_seed:seed ()
  in
  let citus = Citus.Api.install ~shard_count:8 cluster in
  Citus.Api.set_replication_factor citus 2;
  let st = Citus.Api.coordinator_state citus in
  st.Citus.State.config.Citus.State.hedge_threshold <- hedge_threshold;
  let s = Citus.Api.connect citus in
  let exec sql = ignore (Engine.Instance.exec s sql) in
  exec "CREATE TABLE accounts (key bigint PRIMARY KEY, balance bigint)";
  exec "SELECT create_distributed_table('accounts', 'key')";
  for k = 0 to n_keys - 1 do
    exec (Printf.sprintf "INSERT INTO accounts (key, balance) VALUES (%d, 100)" k)
  done;
  let fault =
    match Cluster.Topology.fault cluster with
    | Some f -> f
    | None -> invalid_arg "cluster has no fault plan"
  in
  (* ambient link latency plus one permanently browned-out worker: every
     shard keeps a healthy replica (replication 2 over 3 workers) *)
  Sim.Fault.set_latency fault ~mean:0.002 ~jitter:0.001;
  let victim =
    (List.hd cluster.Cluster.Topology.workers).Cluster.Topology.node_name
  in
  Sim.Fault.stall_node fault ~node:victim ~extra:stall_extra ~duration:1e9;
  let clock = cluster.Cluster.Topology.clock in
  let samples =
    Array.init n_reads (fun i ->
        let k = i mod n_keys in
        let t0 = Sim.Clock.now clock in
        exec (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k);
        Sim.Clock.now clock -. t0)
  in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let mean =
    Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
  in
  {
    mode;
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
    max_ = sorted.(Array.length sorted - 1);
    mean;
    hedged =
      Obs.Metrics.counter_value
        (Cluster.Topology.metrics cluster)
        Obs.Metric_names.exec_hedged_reads;
  }

(* Both modes, same seed — the comparison test_bench guards. *)
let measure_modes () =
  [
    run_mode ~mode:"hedging off" ~hedge_threshold:0.0 ();
    run_mode ~mode:"hedging on" ~hedge_threshold:hedge_on ();
  ]

let run () =
  Report.section
    "Tail latency: single-shard reads under a single-replica brownout";
  let summaries = measure_modes () in
  Report.table
    ~title:
      (Printf.sprintf
         "%d reads, one replica +%.0fms per round trip (hedge threshold %.0fms)"
         n_reads (stall_extra *. 1000.) (hedge_on *. 1000.))
    ~headers:[ "mode"; "p50"; "p95"; "p99"; "max"; "mean"; "hedged" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.mode;
             Report.fmt_ms r.p50;
             Report.fmt_ms r.p95;
             Report.fmt_ms r.p99;
             Report.fmt_ms r.max_;
             Report.fmt_ms r.mean;
             string_of_int r.hedged;
           ])
         summaries);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"tail_latency\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"reads\": %d, \"stall_extra_s\": %.3f, \"hedge_threshold_s\": %.3f,\n"
       n_reads stall_extra hedge_on);
  Buffer.add_string buf "  \"modes\": [\n";
  let n = List.length summaries in
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"p50_s\": %.6f, \"p95_s\": %.6f, \"p99_s\": \
            %.6f, \"max_s\": %.6f, \"mean_s\": %.6f, \"hedged_reads\": %d}%s\n"
           r.mode r.p50 r.p95 r.p99 r.max_ r.mean r.hedged
           (if i = n - 1 then "" else ",")))
    summaries;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_tail.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Report.note "  wrote BENCH_tail.json";
  summaries
