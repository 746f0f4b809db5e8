(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) against the OCaml reproduction.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig6      # one experiment

   The figures run real workloads against the real engines; elapsed time
   and throughput come from the deterministic resource model in Sim.Cost
   (see DESIGN.md for the testbed substitution). *)

let experiments =
  [
    ("tables", "Tables 1-3: workloads, capabilities, benchmarks", fun () -> Tables.run ());
    ("fig6", "Figure 6: TPC-C multi-tenant NOPM", fun () -> ignore (Fig6.run ()));
    ("fig7", "Figure 7: real-time analytics microbenchmarks", fun () -> ignore (Fig7.run ()));
    ("fig8", "Figure 8: TPC-H data warehousing", fun () -> ignore (Fig8.run ()));
    ("fig9", "Figure 9: distributed transaction overhead", fun () -> ignore (Fig9.run ()));
    ("fig10", "Figure 10: YCSB high-performance CRUD", fun () -> ignore (Fig10.run ()));
    ("ablation", "Ablations: columnar, delegation, slow start, join order", fun () -> Ablation.run ());
    ("obs", "Observability overhead: per-tier latency, tracing off vs on", fun () -> Obs_bench.run ());
    ("exec", "Adaptive executor: measured makespans on the virtual clock", fun () -> Exec_bench.run ());
    ("tail", "Tail latency under a brownout: hedging off vs on", fun () -> ignore (Tail.run ()));
    ("consistency", "Read consistency overhead: eventual vs snapshot, clock skew", fun () -> ignore (Consistency.run ()));
    ("prepared", "Prepared statements: plan-cache hit vs re-plan, cold vs warm", fun () -> ignore (Prepared.run ()));
    ("mx", "Citus MX: aggregate YCSB-A throughput, 1 vs N coordinators", fun () -> ignore (Mx.run ()));
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match args with
    | [] ->
      List.filter (fun (n, _, _) -> n <> "ablation") experiments
    | names ->
      List.filter_map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
            exit 1)
        names
  in
  Printf.printf
    "Citus (SIGMOD'21) reproduction benchmarks — shapes, not absolute numbers\n";
  List.iter
    (fun (_, _, f) ->
      let t0 = Unix.gettimeofday () in
      f ();
      Printf.printf "\n[experiment wall time: %.1fs]\n" (Unix.gettimeofday () -. t0))
    to_run
