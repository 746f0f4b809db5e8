(* Seeded chaos harness (§3.7): pgbench-style balance transfers run under
   a randomized fault schedule — node crashes with WAL-replay restarts,
   asymmetric partitions, per-round-trip request/reply loss, and one-shot
   crashes armed on PREPARE TRANSACTION. Every run is a pure function of
   its seed: the fault plan draws from [Sim.Fault]'s seeded RNG on the
   cluster's virtual clock and the workload from its own seeded RNG, so a
   failure reproduces with the printed seed.

   After the storm the harness quiesces (heal everything, bounce every
   node, run the maintenance daemon until recovery and repair drain) and
   checks the kit's post-storm invariants ([Chaos_kit.check_invariants]).
   The delta here: shard moves fired mid-storm, and two targeted
   PREPARE-crash tests that pin each side of 2PC convergence. *)

open Chaos_kit

(* Mid-storm shard move: fire citus_move_shard_placement from SQL while
   transfers and faults are in flight. A move that hits a dead node or a
   cutover lock conflict fails cleanly — the invariants only require
   that whatever it did is consistent and fully accounted. *)
let fire_move f wl c =
  let s = session c in
  let shards = Citus.Metadata.shards_of f.citus.Citus.Api.metadata "accounts" in
  let sh = pick wl shards in
  let to_node = pick wl (worker_names f.cluster) in
  try
    ignore
      (exec s
         (Printf.sprintf "SELECT citus_move_shard_placement(%d, '%s')"
            sh.Citus.Metadata.shard_id to_node))
  with _ -> ()

let run_chaos ?(moves = false) ~seed () =
  let f = accounts ~seed ~replication:2 () in
  trace_on f;
  let wl = rng seed 0x0b5e in
  schedule_storm f (rng seed 0xfa07);
  let c = client f.citus in
  let outcomes = ref [] in
  for i = 1 to n_txns do
    tick f;
    let k1, k2, amount = draw_transfer wl ~n_keys:f.n_keys in
    outcomes := transfer c ~k1 ~k2 ~amount :: !outcomes;
    if moves && i mod 10 = 3 then fire_move f wl c;
    (* occasional reads keep the failover path under fire too *)
    if i mod 5 = 0 then (
      let s = session c in
      try ignore (exec s "SELECT count(*) FROM accounts") with _ -> ());
    (* a mid-storm maintenance pass: recovery must be idempotent and
       partition-safe while faults are still active. Repair may hit an
       unreachable node and give up for this round — that is fine, the
       post-quiescence passes settle it *)
    if i = n_txns / 2 then ( try Citus.Api.maintenance f.citus with _ -> ())
  done;
  let total = settle ~bounce:true f in
  (f, List.rev !outcomes, total)

let test_seed ?moves seed () =
  let f, outcomes, total = run_chaos ?moves ~seed () in
  check_invariants ~seed ~total f;
  check_some_committed ~seed outcomes

let observe ~moves seed =
  let f, outcomes, total = run_chaos ~moves ~seed () in
  observable f
    [
      ("outcomes", List.map outcome_name outcomes);
      ("total", [ string_of_int total ]);
    ]

(* --- targeted: worker crash between PREPARE and COMMIT PREPARED, with a
   concurrent (asymmetric) partition of the other participant --- *)

(* Abort-side convergence. The transfer's first-prepared worker crashes
   right after PREPARE TRANSACTION executes; the other participant's
   reply link is already cut, so its PREPARE executes but looks failed.
   The coordinator aborts, no commit record becomes durable, and recovery
   must roll both prepared transactions back once the storm clears. *)
let test_prepare_crash_with_partition ~lose_reply () =
  let f = accounts ~seed:42 ~replication:1 () in
  let fault = fault_of f.cluster in
  let k1, k2 = cross_node_keys f.citus in
  let w1 = node_of f.citus k1 and w2 = node_of f.citus k2 in
  let s = Citus.Api.connect f.citus in
  begin_transfer s ~k1 ~k2 ~amount:7;
  (* txn_conns holds [w2's conn; w1's conn], so PREPARE reaches w2 first:
     arm the crash there, and cut w1's reply link so its PREPARE (if
     reached) executes without the coordinator learning of it *)
  Sim.Fault.arm_crash_after fault ~node:w2 ~matching:"PREPARE TRANSACTION"
    ~lose_reply ();
  Sim.Fault.partition_link fault ~from_:w1 ~to_:"coordinator";
  (match exec s "COMMIT" with
   | _ -> Alcotest.fail "COMMIT had to fail: a participant just crashed"
   | exception _ -> ());
  rollback_quietly s;
  (* the crashed worker holds its prepared transaction durably *)
  Alcotest.(check bool) "w2 is down" false (Sim.Fault.node_up fault w2);
  (* storm over: restart the worker (WAL replay), heal the link, recover *)
  quiesce ~bounce:false f;
  let st = Citus.Api.coordinator_state f.citus in
  let s = Citus.Api.connect f.citus in
  Alcotest.(check int) "transfer rolled back everywhere: total intact"
    (expected_total f)
    (one_int s "SELECT sum(balance) FROM accounts");
  Alcotest.(check int) "debit absent" initial_balance
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k1));
  Alcotest.(check int) "credit absent" initial_balance
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2));
  check_no_prepared f.cluster;
  Alcotest.(check int) "no commit records" 0
    (Citus.Twopc.commit_record_count st)

(* Commit-side convergence: the last-prepared worker crashes after its
   PREPARE succeeds, so the coordinator commits locally with durable
   commit records, loses the COMMIT PREPARED fan-out to the dead node,
   and recovery must finish the commit there after the restart. *)
let test_prepare_crash_commit_side () =
  let f = accounts ~seed:43 ~replication:1 () in
  let fault = fault_of f.cluster in
  let k1, k2 = cross_node_keys f.citus in
  let w1 = node_of f.citus k1 in
  let st = Citus.Api.coordinator_state f.citus in
  let s = Citus.Api.connect f.citus in
  begin_transfer s ~k1 ~k2 ~amount:7;
  (* w1's conn is prepared last: its PREPARE succeeds, then it dies *)
  Sim.Fault.arm_crash_after fault ~node:w1 ~matching:"PREPARE TRANSACTION" ();
  ignore (exec s "COMMIT");
  (* the client saw success; the dead participant is owed a COMMIT
     PREPARED, witnessed by the retained commit record *)
  Alcotest.(check bool) "commit record retained for the dead node" true
    (Citus.Twopc.commit_record_count st > 0);
  Alcotest.(check int) "fan-out failure counted" 1
    (Citus.Health.failed_commits st.Citus.State.health w1);
  Sim.Fault.restart_now fault w1;
  recover f;
  let s = Citus.Api.connect f.citus in
  Alcotest.(check int) "debit committed by recovery" (initial_balance - 7)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k1));
  Alcotest.(check int) "credit committed" (initial_balance + 7)
    (one_int s (Printf.sprintf "SELECT balance FROM accounts WHERE key = %d" k2));
  Alcotest.(check int) "commit records drained" 0
    (Citus.Twopc.commit_record_count st);
  check_no_prepared f.cluster

let () =
  let n = width ~default:8 in
  Alcotest.run "chaos"
    [
      ("seed-matrix", seed_cases ~first:1 n (fun seed -> test_seed seed));
      (* chaos over the rebalancer: same storm, with shard moves fired
         mid-workload; some seeds move onto dead nodes, some cut over
         under lock contention *)
      ( "move-matrix",
        seed_cases
          ~name:(Printf.sprintf "moves under fire, seed %d")
          ~first:11
          (max 1 (n / 2))
          (fun seed -> test_seed ~moves:true seed) );
      ( "reproducibility",
        [
          Alcotest.test_case "same seed, same run" `Quick
            (test_reproducible ~observe:(observe ~moves:true) ~seed:5 ~other:6);
        ] );
      ( "targeted-2pc",
        [
          Alcotest.test_case "prepare crash + partition (reply kept)" `Quick
            (test_prepare_crash_with_partition ~lose_reply:false);
          Alcotest.test_case "prepare crash + partition (reply lost)" `Quick
            (test_prepare_crash_with_partition ~lose_reply:true);
          Alcotest.test_case "prepare crash, commit side" `Quick
            test_prepare_crash_commit_side;
        ] );
    ]
