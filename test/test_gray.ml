(* Gray-failure chaos: seeded stall storms. Unlike test_chaos (crashes,
   partitions, lost replies) every node here stays up and every message
   eventually arrives — replies just land seconds late. Brownouts, ambient
   latency and micro-stalls at scheduler suspension points churn under a
   pgbench-style transfer/read workload with statement timeouts and
   hedged reads enabled.

   The delta on top of the kit's post-storm invariants is boundedness:
   every statement either completes or fails within its deadline plus a
   small epsilon (two bounded phases for COMMIT) — a statement that waits
   out a multi-second stall is a bug even if it eventually succeeds. The
   kit's conservation check doubles as "hedging never duplicated a side
   effect", since hedging is reads-only. *)

open Chaos_kit

let n_keys = 16
let n_stmts = 30
let timeout = 0.5
let hedge_threshold = 0.05

(* covers ambient latency draws, modeled fragment costs, suspension-point
   micro-stalls and posted-rollback cleanup — but not a real stall, whose
   extra delay starts at 1s *)
let epsilon = 0.3

let make_cluster ~seed =
  let configure (cfg : Citus.State.config) =
    cfg.Citus.State.statement_timeout <- timeout;
    cfg.Citus.State.hedge_threshold <- hedge_threshold
  in
  accounts ~n_keys ~configure ~seed ~replication:2 ()

(* --- the storm: only gray faults, nothing ever dies --- *)

let schedule_stalls f rng =
  let fault = fault_of f.cluster in
  let workers = worker_names f.cluster in
  let horizon = float_of_int n_stmts *. clock_step in
  (* ambient link latency: small, jittered, always on *)
  Sim.Fault.set_latency fault ~mean:0.005 ~jitter:0.005;
  (* brownouts: a worker's replies land seconds late for a while — far
     past the statement deadline, nowhere near a crash *)
  for _ = 1 to 4 do
    let at = Random.State.float rng (horizon *. 0.9) in
    let extra = 1.0 +. Random.State.float rng 5.0 in
    let duration = 0.5 +. Random.State.float rng 2.0 in
    Sim.Fault.schedule_stall fault ~at ~extra ~duration (pick rng workers)
  done;
  (* micro-stalls at scheduler suspension points *)
  Sim.Fault.set_suspension_hazard fault ~p:0.02 ~stall:0.002

(* --- the timed workload --- *)

(* Every statement is timed on the virtual clock against its deadline
   bound; overshoots are collected and failing is deferred to the end so
   a violation reports the worst offender, tagged with its seed. *)
let timed f violations ~bound ~label run =
  let clock = f.cluster.Cluster.Topology.clock in
  let t0 = Sim.Clock.now clock in
  let note () =
    let elapsed = Sim.Clock.now clock -. t0 in
    if elapsed > bound then violations := (label, elapsed, bound) :: !violations
  in
  match run () with
  | r ->
    note ();
    r
  | exception e ->
    note ();
    raise e

(* COMMIT runs two bounded phases (PREPARE, COMMIT PREPARED) *)
let bound_of label =
  if String.equal label "COMMIT" then (2.0 *. timeout) +. epsilon
  else timeout +. epsilon

let read f violations c k =
  let s = session c in
  match
    timed f violations ~bound:(timeout +. epsilon)
      ~label:(Printf.sprintf "read %d" k)
      (fun () ->
        exec s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k))
  with
  | _ -> ()
  | exception _ -> rollback_quietly s

(* --- one full storm --- *)

let run_gray ~seed () =
  let f = make_cluster ~seed in
  trace_on f;
  let wl = rng seed 0x0b5e in
  schedule_stalls f (rng seed 0x57a1);
  let violations = ref [] in
  let outcomes = ref [] in
  let c = client f.citus in
  let wrap ~label run = timed f violations ~bound:(bound_of label) ~label run in
  for i = 1 to n_stmts do
    tick f;
    if i mod 3 = 0 then
      (* a single-shard read: the hedging path under fire *)
      read f violations c (Random.State.int wl n_keys)
    else begin
      let k1, k2, amount = draw_transfer wl ~n_keys in
      outcomes := transfer ~wrap c ~k1 ~k2 ~amount :: !outcomes
    end
  done;
  let total = settle ~bounce:false f in
  (f, List.rev !outcomes, List.rev !violations, total)

let check_bounded ~seed violations =
  match List.sort (fun (_, a, _) (_, b, _) -> compare b a) violations with
  | [] -> ()
  | (label, elapsed, bound) :: _ ->
    Alcotest.fail
      (tag seed
         (Printf.sprintf
            "%d statement(s) overshot their deadline; worst: %s took %.3fs \
             against a %.3fs bound — a stalled node leaked into the client's \
             latency"
            (List.length violations) label elapsed bound))

(* Counters accumulated across the matrix: the boundedness check is
   vacuous if no statement ever overlapped a stall, so the last test of
   the matrix asserts the storm really bit somewhere. *)
let matrix_timeouts = ref 0
let matrix_hedges = ref 0
let matrix_deadline_awaits = ref 0

let test_seed seed () =
  let f, outcomes, violations, total = run_gray ~seed () in
  matrix_timeouts := !matrix_timeouts + counter f.cluster Obs.Metric_names.exec_timeouts;
  matrix_hedges := !matrix_hedges + counter f.cluster Obs.Metric_names.exec_hedged_reads;
  matrix_deadline_awaits :=
    !matrix_deadline_awaits + counter f.cluster Obs.Metric_names.net_await_timed_out;
  check_bounded ~seed violations;
  check_invariants ~seed ~total f;
  check_some_committed ~seed outcomes

(* runs after the matrix (Alcotest executes cases in order, one process) *)
let test_storm_was_live () =
  Alcotest.(check bool)
    (Printf.sprintf
       "statements really hit stalls across the matrix (timeouts=%d \
        hedges=%d deadline awaits=%d)"
       !matrix_timeouts !matrix_hedges !matrix_deadline_awaits)
    true
    (!matrix_timeouts > 0 && !matrix_hedges > 0 && !matrix_deadline_awaits > 0)

let observe seed =
  let f, outcomes, violations, total = run_gray ~seed () in
  observable f
    [
      ("outcomes", List.map outcome_name outcomes);
      ( "overshoot list",
        List.map (fun (l, e, _) -> Printf.sprintf "%s %.6f" l e) violations );
      ("total", [ string_of_int total ]);
    ]

let () =
  Alcotest.run "gray"
    [
      ( "stall-matrix",
        seed_cases ~first:1 (width ~default:8) test_seed
        @ [ Alcotest.test_case "the storm was live" `Quick test_storm_was_live ]
      );
      ( "reproducibility",
        [
          Alcotest.test_case "same seed, same storm" `Quick
            (test_reproducible ~observe ~seed:3 ~other:4);
        ] );
    ]
