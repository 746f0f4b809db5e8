(* citus_lint: per-rule fixtures (violating and clean), baseline policy. *)

let rule id =
  match Registry.find id with
  | Some r -> r
  | None -> Alcotest.failf "no rule %s" id

(* Run one rule over inline fixture sources. *)
let run id sources = Lint_engine.run_sources ~rules:[ rule id ] sources

let ids fs = List.map (fun (f : Rule.finding) -> f.Rule.rule_id) fs

let lines fs = List.map (fun (f : Rule.finding) -> f.Rule.line) fs

(* --- L1 sql-injection --- *)

let l1_violating =
  {|let run t conn user =
  let q = Printf.sprintf "SELECT * FROM %s" user in
  Exec.on_conn_exn t conn q

let direct conn user =
  Exec.raw_on_conn_exn conn (Printf.sprintf "DELETE FROM %s" user)

let concat conn x = Cluster.Connection.exec_async conn ("SELECT " ^ x)

let parse x = Sqlfront.Parser.parse_select ("SELECT * FROM " ^ x)
|}

let l1_clean =
  {|let ok t conn gid =
  Exec.ast_on_conn_exn t conn (Sqlfront.Ast.Prepare_transaction gid)

let annotated conn shard =
  (Exec.raw_on_conn_exn conn
     (Printf.sprintf "SELECT * FROM %s" shard) [@lint.sql_static])

let static t conn = Exec.on_conn_exn t conn "COMMIT"

(* client-boundary senders are not sinks: workloads model client SQL *)
let client db user = Db.exec db (Printf.sprintf "SELECT %s" user)
|}

let test_l1_violating () =
  let fs = run "L1" [ ("lib/core/fx.ml", l1_violating) ] in
  Alcotest.(check int) "four taint flows" 4 (List.length fs);
  Alcotest.(check (list string)) "all L1" [ "L1"; "L1"; "L1"; "L1" ] (ids fs);
  Alcotest.(check (list int)) "argument locations" [ 3; 6; 8; 10 ] (lines fs)

let test_l1_clean () =
  let fs = run "L1" [ ("lib/core/fx.ml", l1_clean) ] in
  Alcotest.(check int) "clean" 0 (List.length fs)

(* --- L2 determinism --- *)

let l2_violating =
  {|let now () = Unix.gettimeofday ()
let later () = Unix.time ()
let cpu () = Sys.time ()
let roll () = Random.int 6
let seed () = Random.self_init ()
|}

let l2_clean =
  {|let now clock = Sim.Clock.now clock
let roll st = Random.State.int st 6
let seeded = Random.State.make [| 42 |]
|}

let test_l2_violating () =
  let fs = run "L2" [ ("lib/core/fx.ml", l2_violating) ] in
  Alcotest.(check int) "five ambient reads" 5 (List.length fs);
  Alcotest.(check (list int)) "one per line" [ 1; 2; 3; 4; 5 ] (lines fs)

let test_l2_clean () =
  let fs = run "L2" [ ("lib/core/fx.ml", l2_clean) ] in
  Alcotest.(check int) "seeded state is legal" 0 (List.length fs)

let test_l2_sim_exempt () =
  (* the sim layer is where time and randomness are implemented *)
  let fs = run "L2" [ ("lib/sim/clock.ml", l2_violating) ] in
  Alcotest.(check int) "lib/sim is out of scope" 0 (List.length fs)

(* --- L3 exception-hygiene --- *)

let l3_violating =
  {|let f h k = Hashtbl.find h k
let g l = List.hd l
let a l k = List.assoc k l
let o x = Option.get x
|}

let l3_clean =
  {|let f h k = try Hashtbl.find h k with Not_found -> 0

let g h k =
  match Hashtbl.find h k with
  | exception Not_found -> 0
  | v -> v

let h tbl k = match Hashtbl.find_opt tbl k with Some v -> v | None -> 0
|}

let test_l3_violating () =
  let fs = run "L3" [ ("lib/core/fx.ml", l3_violating) ] in
  Alcotest.(check int) "four partial lookups" 4 (List.length fs);
  Alcotest.(check (list int)) "one per line" [ 1; 2; 3; 4 ] (lines fs)

let test_l3_protected () =
  let fs = run "L3" [ ("lib/core/fx.ml", l3_clean) ] in
  Alcotest.(check int) "lexical handlers protect" 0 (List.length fs)

let test_l3_scope () =
  (* only lib/core and lib/cluster: workloads model client code *)
  let fs = run "L3" [ ("lib/workloads/fx.ml", l3_violating) ] in
  Alcotest.(check int) "lib/workloads is out of scope" 0 (List.length fs);
  let fs = run "L3" [ ("lib/cluster/fx.ml", l3_violating) ] in
  Alcotest.(check int) "lib/cluster is in scope" 4 (List.length fs)

(* --- L4 mli-coverage --- *)

let test_l4 () =
  let fs =
    run "L4"
      [
        ("lib/core/covered.ml", "");
        ("lib/core/covered.mli", "");
        ("lib/core/naked.ml", "");
        ("bin/main.ml", "");
      ]
  in
  Alcotest.(check int) "one uncovered module" 1 (List.length fs);
  match fs with
  | [ f ] ->
    Alcotest.(check string) "rule id" "L4" f.Rule.rule_id;
    Alcotest.(check string) "the naked module" "lib/core/naked.ml" f.Rule.file
  | _ -> Alcotest.fail "expected exactly one finding"

(* --- L5 no-catch-all --- *)

let l5_violating =
  {|let f x = try x () with _ -> ()

let j x = match x () with v -> v | exception _ -> 0
|}

let l5_clean =
  {|let reraise x = try x () with e -> raise e

let recorded t x = try x () with _ -> Health.record_ignored t "node"

let logged x = try x () with _ -> log_warn "swallowed"

let typed h k = try Hashtbl.find h k with Not_found -> 0
|}

let test_l5_violating () =
  let fs = run "L5" [ ("lib/core/twopc.ml", l5_violating) ] in
  Alcotest.(check int) "try and match-exception swallows" 2 (List.length fs);
  Alcotest.(check (list int)) "handler locations" [ 1; 3 ] (lines fs)

let test_l5_clean () =
  let fs = run "L5" [ ("lib/core/twopc.ml", l5_clean) ] in
  Alcotest.(check int) "re-raise/record/log/typed all pass" 0 (List.length fs)

let test_l5_scope () =
  (* only the reliability-critical files *)
  let fs = run "L5" [ ("lib/core/planner.ml", l5_violating) ] in
  Alcotest.(check int) "planner.ml is out of scope" 0 (List.length fs)

(* --- L6 twopc-state-machine --- *)

let l6_violating =
  {|let pre_commit t = ignore t

let post_commit st =
  st.State.prepared <- [];
  st.State.txn_conns <- []

let recover t =
  exec t (Sqlfront.Ast.Commit_prepared "gid")
|}

let l6_clean =
  {|let cleanup st =
  st.State.prepared <- [];
  st.State.txn_conns <- [];
  st.State.dist_xids <- []

let pre_commit st gids = st.State.prepared <- gids

let post_commit st = cleanup st

let on_abort st = cleanup st

let recover t mgr gid =
  if committed t gid then Txn.Manager.commit_prepared mgr gid
  else Txn.Manager.rollback_prepared mgr gid
|}

(* recover hands both resolutions to a same-file helper: still a
   finding, because L6 reads recover's own body, not its callees' *)
let l6_delegated_resolutions =
  {|let cleanup st =
  st.State.prepared <- [];
  st.State.txn_conns <- [];
  st.State.dist_xids <- []

let pre_commit st gids = st.State.prepared <- gids

let post_commit st = cleanup st

let on_abort st = cleanup st

let apply t conn ~committed gid =
  if committed then exec t conn (Sqlfront.Ast.Commit_prepared gid)
  else exec t conn (Sqlfront.Ast.Rollback_prepared gid)

let recover t conn gid = apply t conn ~committed:(decide t gid) gid
|}

let test_l6_violating () =
  let fs = run "L6" [ ("lib/core/twopc.ml", l6_violating) ] in
  (* missing on_abort; pre_commit never moves [prepared]; post_commit
     leaks [dist_xids]; recover can only commit *)
  Alcotest.(check int) "four lost transitions" 4 (List.length fs);
  Alcotest.(check (list string)) "all L6" [ "L6"; "L6"; "L6"; "L6" ] (ids fs);
  Alcotest.(check (list int)) "finding locations" [ 1; 1; 3; 7 ] (lines fs)

let test_l6_clean () =
  (* field writes through a shared helper count: the analysis is a
     fixpoint over the local call graph *)
  let fs = run "L6" [ ("lib/core/twopc.ml", l6_clean) ] in
  Alcotest.(check int) "transitive writes satisfy the rule" 0 (List.length fs)

let test_l6_delegated () =
  let fs = run "L6" [ ("lib/core/twopc.ml", l6_delegated_resolutions) ] in
  Alcotest.(check (list string)) "both resolutions missing from recover"
    [ "L6"; "L6" ] (ids fs);
  Alcotest.(check (list int)) "both at recover" [ 16; 16 ] (lines fs)

let test_l6_scope () =
  let fs = run "L6" [ ("lib/core/planner.ml", l6_violating) ] in
  Alcotest.(check int) "only twopc.ml is in scope" 0 (List.length fs)

(* --- L7 lock-order --- *)

let l7_violating =
  {|let inverted mgr owner table tid =
  (match Txn.Lock.acquire mgr ~owner (Txn.Lock.Row (table, tid)) Txn.Lock.Row_lock with
   | Txn.Lock.Granted -> ()
   | Txn.Lock.Blocked holders -> raise (Would_block holders));
  match Txn.Lock.acquire mgr ~owner (Txn.Lock.Table table) Txn.Lock.Row_exclusive with
  | Txn.Lock.Granted -> ()
  | Txn.Lock.Blocked holders -> raise (Would_block holders)

let dropped mgr owner table =
  ignore (Txn.Lock.acquire mgr ~owner (Txn.Lock.Table table) Txn.Lock.Access_share)

let wildcarded mgr owner table =
  match Txn.Lock.acquire mgr ~owner (Txn.Lock.Table table) Txn.Lock.Access_share with
  | Txn.Lock.Granted -> ()
  | _ -> ()
|}

let l7_clean =
  {|let disciplined mgr owner table tid =
  (match Txn.Lock.acquire mgr ~owner (Txn.Lock.Table table) Txn.Lock.Row_exclusive with
   | Txn.Lock.Granted -> ()
   | Txn.Lock.Blocked holders -> raise (Would_block holders));
  match Txn.Lock.acquire mgr ~owner (Txn.Lock.Row (table, tid)) Txn.Lock.Row_lock with
  | Txn.Lock.Granted -> ()
  | Txn.Lock.Blocked holders -> raise (Would_block holders)

let other_fn mgr owner table =
  (* a Table acquisition in a separate function is a separate scope *)
  match Txn.Lock.acquire mgr ~owner (Txn.Lock.Table table) Txn.Lock.Access_share with
  | Txn.Lock.Granted -> ()
  | Txn.Lock.Blocked holders -> raise (Would_block holders)

let via_wrapper ctx table tid =
  acquire_lock ctx (Txn.Lock.Table table) Txn.Lock.Row_exclusive;
  acquire_lock ctx (Txn.Lock.Row (table, tid)) Txn.Lock.Row_lock
|}

let test_l7_violating () =
  let fs = run "L7" [ ("lib/core/fx.ml", l7_violating) ] in
  (* Table-after-Row inversion; ignored outcome; wildcarded Blocked *)
  Alcotest.(check int) "three violations" 3 (List.length fs);
  Alcotest.(check (list string)) "all L7" [ "L7"; "L7"; "L7" ] (ids fs);
  Alcotest.(check (list int)) "finding locations" [ 5; 10; 13 ] (lines fs)

let test_l7_clean () =
  let fs = run "L7" [ ("lib/core/fx.ml", l7_clean) ] in
  Alcotest.(check int) "coarse-to-fine with Blocked handled" 0
    (List.length fs)

let test_l7_scope () =
  let fs = run "L7" [ ("test/test_fx.ml", l7_violating) ] in
  Alcotest.(check int) "tests assert on outcomes; out of scope" 0
    (List.length fs)

(* --- L8 span-conservation --- *)

let l8_violating =
  {|let manual trace now node =
  let sp = Obs.Trace.open_span trace ~now ~node ~kind:"stmt" () in
  work ();
  Obs.Trace.close_span trace ~now sp
|}

let l8_clean =
  {|let bracketed trace now node f =
  Obs.Trace.with_span trace ~now ~node ~kind:"stmt" f

let fiber trace parent now node f =
  Obs.Trace.with_span_parent trace ~parent ~now ~node ~kind:"fragment" f
|}

let test_l8_violating () =
  let fs = run "L8" [ ("lib/core/fx.ml", l8_violating) ] in
  Alcotest.(check int) "manual open and close both flagged" 2 (List.length fs);
  Alcotest.(check (list string)) "all L8" [ "L8"; "L8" ] (ids fs);
  Alcotest.(check (list int)) "call locations" [ 2; 4 ] (lines fs)

let test_l8_clean () =
  let fs = run "L8" [ ("lib/core/fx.ml", l8_clean) ] in
  Alcotest.(check int) "bracketed combinators pass" 0 (List.length fs)

let test_l8_scope () =
  (* lib/obs implements the combinators on the primitives *)
  let fs = run "L8" [ ("lib/obs/trace.ml", l8_violating) ] in
  Alcotest.(check int) "lib/obs is out of scope" 0 (List.length fs)

(* --- L10 transitive-blocking --- *)

(* direct uses of the primitives: the zero-depth case *)
let direct_violating =
  {|let bad_sleep t s =
  Sim.Sched.sleep s 1.0

let bad_await conn =
  Cluster.Connection.await (Cluster.Connection.exec_async conn "SELECT 1")

let bad_nested t fibs =
  List.iter (fun f -> ignore (Sim.Sched.await t f)) fibs
|}

let direct_clean =
  {|let scoped t f =
  State.with_sched t (fun sched -> Sim.Sched.await sched (f sched))

let param_scope sched fib = Sim.Sched.await_result sched fib

let spawned sched conn =
  Sim.Sched.spawn sched (fun () ->
      Cluster.Connection.await (Cluster.Connection.exec_async conn "SELECT 1"))

let boundary cluster until_ =
  (Sim.Sched.sleep_until (get_sched cluster) until_ [@lint.blocking])

let optional ?sched () =
  match sched with Some sched -> Sim.Sched.yield sched | None -> ()
|}

let test_direct_violating () =
  let fs = run "L10" [ ("lib/core/fx.ml", direct_violating) ] in
  Alcotest.(check int) "three unscoped suspensions" 3 (List.length fs);
  Alcotest.(check (list string)) "all L10" [ "L10"; "L10"; "L10" ] (ids fs);
  Alcotest.(check (list int)) "call locations" [ 2; 5; 8 ] (lines fs)

let test_direct_clean () =
  let fs = run "L10" [ ("lib/core/fx.ml", direct_clean) ] in
  Alcotest.(check int)
    "with_sched / sched param / spawn thunk / Some sched / annotation all \
     pass"
    0 (List.length fs)

let test_direct_scope () =
  (* the scheduler's own implementation suspends by construction *)
  let fs = run "L10" [ ("lib/sim/sched.ml", direct_violating) ] in
  Alcotest.(check int) "lib/sim is out of scope" 0 (List.length fs);
  let fs = run "L10" [ ("test/test_fx.ml", direct_violating) ] in
  Alcotest.(check int) "tests are out of scope" 0 (List.length fs)

(* a two-hop suspending chain: Util.pause reaches Sim.Sched.sleep, and
   Mid.relay reaches it through Util — all callers of either must be in
   a scheduler scope *)
let l10_util =
  {|let pause sched = Sim.Sched.sleep sched 1.0
|}

let l10_mid =
  {|let relay sched = Util.pause sched
|}

let l10_violating =
  {|let tick t = Mid.relay t

let hof l = List.map Util.pause l
|}

let l10_clean =
  {|let ok t = State.with_sched t (fun sched -> Mid.relay sched)

let param sched = Mid.relay sched

let maint t = (Mid.relay t [@lint.blocking])
|}

(* a callee taking ?sched is dual-mode by construction *)
let l10_dual =
  {|let tickle ?sched t =
  match sched with Some s -> Sim.Sched.yield s | None -> ignore t
|}

let l10_files extra =
  [ ("lib/core/util.ml", l10_util); ("lib/core/mid.ml", l10_mid) ] @ extra

let test_l10_violating () =
  let fs = run "L10" (l10_files [ ("lib/core/fx.ml", l10_violating) ]) in
  (* the unscoped call and the higher-order use both count *)
  Alcotest.(check int) "call and higher-order use flagged" 2 (List.length fs);
  Alcotest.(check (list string)) "all L10" [ "L10"; "L10" ] (ids fs);
  Alcotest.(check (list int)) "site locations" [ 1; 3 ] (lines fs)

let test_l10_clean () =
  let fs = run "L10" (l10_files [ ("lib/core/fx.ml", l10_clean) ]) in
  Alcotest.(check int)
    "with_sched scope / sched param / [@lint.blocking] all pass" 0
    (List.length fs)

let test_l10_dual_mode () =
  let fs =
    run "L10"
      (l10_files
         [
           ("lib/core/dual.ml", l10_dual);
           ("lib/core/fx.ml", "let outside t = Dual.tickle t\n");
         ])
  in
  Alcotest.(check int) "?sched callee is dual-mode, callers free" 0
    (List.length fs)

(* a [?sched] function may use the primitives directly, but a call to a
   derived suspending function in its body is still unscoped *)
let test_l10_opt_sched_body () =
  let fs =
    run "L10"
      (l10_files [ ("lib/core/fx.ml", "let f ?sched t = Mid.relay t\n") ])
  in
  Alcotest.(check int) "derived call in a ?sched body flagged" 1
    (List.length fs);
  Alcotest.(check (list int)) "site location" [ 1 ] (lines fs)

let test_l10_scope () =
  let fs = run "L10" (l10_files [ ("test/test_fx.ml", l10_violating) ]) in
  Alcotest.(check int) "tests are out of scope" 0 (List.length fs)

(* --- L11 cancellation-safety --- *)

let l11_violating =
  {|let bad_lock mgr sched owner target =
  let _ = Txn.Lock.acquire mgr ~owner target Txn.Lock.Row_lock in
  Sim.Sched.sleep sched 1.0

let bad_span trace sched now node =
  let sp = Obs.Trace.open_span trace ~now ~node ~kind:"stmt" () in
  Sim.Sched.yield sched;
  Obs.Trace.close_span trace ~now sp
|}

let l11_clean =
  {|let bracketed mgr sched owner target =
  let _ = Txn.Lock.acquire mgr ~owner target Txn.Lock.Row_lock in
  Fun.protect
    ~finally:(fun () -> Txn.Lock.release_all mgr ~owner)
    (fun () -> Sim.Sched.sleep sched 1.0)

let released mgr sched owner target =
  let _ = Txn.Lock.acquire mgr ~owner target Txn.Lock.Row_lock in
  Txn.Lock.release_all mgr ~owner;
  Sim.Sched.sleep sched 1.0

let other_lambda mgr t owner target =
  let _ = Txn.Lock.acquire mgr ~owner target Txn.Lock.Row_lock in
  State.with_sched t (fun sched -> Sim.Sched.sleep sched 1.0)

let annotated mgr sched owner target =
  let _ =
    (Txn.Lock.acquire mgr ~owner target Txn.Lock.Row_lock
     [@lint.cancel_safe])
  in
  Sim.Sched.sleep sched 1.0
|}

let test_l11_violating () =
  let fs = run "L11" [ ("lib/core/fx.ml", l11_violating) ] in
  (* the lock and the span both held across a suspension *)
  Alcotest.(check int) "lock and span hazards" 2 (List.length fs);
  Alcotest.(check (list string)) "all L11" [ "L11"; "L11" ] (ids fs);
  Alcotest.(check (list int)) "acquire locations" [ 2; 6 ] (lines fs)

let test_l11_clean () =
  let fs = run "L11" [ ("lib/core/fx.ml", l11_clean) ] in
  Alcotest.(check int)
    "bracket / release-first / barrier lambda / annotation all pass" 0
    (List.length fs)

let test_l11_transitive () =
  (* the suspension may hide behind a call: Util.pause suspends *)
  let fs =
    run "L11"
      [
        ("lib/core/util.ml", l10_util);
        ( "lib/core/fx.ml",
          "let bad mgr sched owner target =\n\
          \  let _ = Txn.Lock.acquire mgr ~owner target Txn.Lock.Row_lock in\n\
          \  Util.pause sched\n" );
      ]
  in
  Alcotest.(check int) "transitive suspension counts" 1 (List.length fs);
  Alcotest.(check (list int)) "at the acquire" [ 2 ] (lines fs)

(* --- L12 deadline-propagation --- *)

(* the entry points are Adaptive_executor.execute and Twopc.*: fixture
   files take those module names *)
let l12_violating =
  {|let helper sched f = Sim.Sched.await_result sched f

let execute t sched conn f =
  ignore
    (Cluster.Connection.await (Cluster.Connection.exec_async conn "SELECT 1"));
  helper sched f
|}

let l12_clean =
  {|let helper sched dl f = Sim.Sched.await_result sched ~deadline:dl f

let execute t sched dl conn f =
  ignore
    (Cluster.Connection.await ~deadline:dl
       (Cluster.Connection.exec_async conn "SELECT 1"));
  helper sched dl f
|}

let l12_annotated =
  {|let execute t sched f =
  ignore (Sim.Sched.await_result sched f [@lint.unbounded])
|}

let test_l12_violating () =
  let fs = run "L12" [ ("lib/core/adaptive_executor.ml", l12_violating) ] in
  (* the bare await in execute, and helper's await_result — reachable
     from the entry point — both lack a deadline *)
  Alcotest.(check int) "both awaits flagged" 2 (List.length fs);
  Alcotest.(check (list string)) "all L12" [ "L12"; "L12" ] (ids fs);
  Alcotest.(check (list int)) "await locations" [ 1; 5 ] (lines fs)

let test_l12_clean () =
  let fs = run "L12" [ ("lib/core/adaptive_executor.ml", l12_clean) ] in
  Alcotest.(check int) "?deadline everywhere passes" 0 (List.length fs)

let test_l12_escape () =
  let fs = run "L12" [ ("lib/core/adaptive_executor.ml", l12_annotated) ] in
  Alcotest.(check int) "[@lint.unbounded] is trusted" 0 (List.length fs)

let test_l12_unreachable () =
  (* the same awaits in a module no entry point reaches are not on the
     statement path *)
  let fs = run "L12" [ ("lib/core/maintenance.ml", l12_violating) ] in
  Alcotest.(check int) "unreachable awaits are not findings" 0
    (List.length fs)

let test_l12_twopc_entry () =
  (* every top-level function of Twopc is an entry point *)
  let fs =
    run "L12"
      [ ("lib/core/twopc.ml", "let recover t sched f = Sim.Sched.await sched f\n") ]
  in
  Alcotest.(check int) "Twopc.* are entries" 1 (List.length fs)

(* --- L13 metric-registry --- *)

let l13_violating =
  {|let count m = Obs.Metrics.inc m "exec.tasks"

let dynamic m x = Obs.Metrics.observe m ("exec." ^ x) 1.0

let gauge m = Obs.Metrics.gauge_add m "breaker.tripped" 1.0
|}

let l13_clean =
  {|let count m = Obs.Metrics.inc m Obs.Metric_names.exec_tasks

let family m node = Obs.Metrics.inc m (Obs.Metric_names.net_connect_to node)

let unqualified m = Obs.Metrics.inc m Metric_names.exec_tasks

let by_label m = Obs.Metrics.inc m ~by:2 Obs.Metric_names.exec_tasks

let adhoc m x = Obs.Metrics.inc m (("dyn." ^ x) [@lint.metric_adhoc])
|}

let test_l13_violating () =
  let fs = run "L13" [ ("lib/core/fx.ml", l13_violating) ] in
  Alcotest.(check int) "literal and concatenated names flagged" 3
    (List.length fs);
  Alcotest.(check (list string)) "all L13" [ "L13"; "L13"; "L13" ] (ids fs);
  Alcotest.(check (list int)) "name-argument locations" [ 1; 3; 5 ] (lines fs)

let test_l13_clean () =
  let fs = run "L13" [ ("lib/core/fx.ml", l13_clean) ] in
  Alcotest.(check int)
    "registry constants / families / ~by label / annotation all pass" 0
    (List.length fs)

let test_l13_scope () =
  (* lib/obs implements the registry and the metrics store *)
  let fs = run "L13" [ ("lib/obs/metrics.ml", l13_violating) ] in
  Alcotest.(check int) "lib/obs is out of scope" 0 (List.length fs)

(* --- L14 snapshot-discipline --- *)

(* the dispatch primitives must be defined for the resolver: the rule
   checks resolved targets, not syntactic paths *)
let l14_exec_stub =
  {|let ast_on_conn_exn ?deadline ?snapshot t conn stmt =
  ignore (deadline, snapshot, t, conn, stmt)

let on_conn_exn ?deadline t conn sql = ignore (deadline, t, conn, sql)

let bound_on_conn_exn ?deadline ?snapshot t conn b =
  ignore (deadline, snapshot, t, conn, b)

let local_exn ?snapshot session stmt = ignore (snapshot, session, stmt)
|}

let l14_violating =
  {|let dispatch t conn stmt = Exec.ast_on_conn_exn t conn stmt

let execute t conn stmt =
  ignore (Exec.ast_on_conn_exn ~deadline:1.0 t conn stmt);
  dispatch t conn stmt
|}

let l14_clean =
  {|let dispatch t conn snap stmt = Exec.ast_on_conn_exn ~snapshot:snap t conn stmt

let execute t conn snap stmt =
  ignore (Exec.ast_on_conn_exn ?snapshot:snap t conn stmt);
  dispatch t conn snap stmt
|}

let l14_annotated =
  {|let execute t conn gid =
  ignore
    ((Exec.ast_on_conn_exn t conn (Sqlfront.Ast.Commit_prepared gid))
     [@lint.latest])
|}

let l14_control =
  {|let execute t conn = ignore (Exec.on_conn_exn t conn "BEGIN")
|}

let test_l14_violating () =
  let fs =
    run "L14"
      [
        ("lib/core/exec.ml", l14_exec_stub);
        ("lib/core/adaptive_executor.ml", l14_violating);
      ]
  in
  (* the deadline-only dispatch in execute, and helper's dispatch —
     reachable from the entry point — both omit ?snapshot *)
  Alcotest.(check int) "both dispatches flagged" 2 (List.length fs);
  Alcotest.(check (list string)) "all L14" [ "L14"; "L14" ] (ids fs);
  Alcotest.(check (list int)) "dispatch locations" [ 1; 4 ] (lines fs)

let test_l14_clean () =
  let fs =
    run "L14"
      [
        ("lib/core/exec.ml", l14_exec_stub);
        ("lib/core/adaptive_executor.ml", l14_clean);
      ]
  in
  Alcotest.(check int) "?snapshot everywhere passes" 0 (List.length fs)

let test_l14_escape () =
  let fs =
    run "L14"
      [
        ("lib/core/exec.ml", l14_exec_stub);
        ("lib/core/adaptive_executor.ml", l14_annotated);
      ]
  in
  Alcotest.(check int) "[@lint.latest] is trusted" 0 (List.length fs)

let test_l14_unreachable () =
  (* the same dispatches in a module the entry point does not reach are
     not on the statement path *)
  let fs =
    run "L14"
      [
        ("lib/core/exec.ml", l14_exec_stub);
        ("lib/core/maintenance.ml", l14_violating);
      ]
  in
  Alcotest.(check int) "unreachable dispatches are not findings" 0
    (List.length fs)

let test_l14_control_statements () =
  (* string-form control statements (BEGIN, SET) are not planned
     fragments; only the AST dispatch primitives are in scope *)
  let fs =
    run "L14"
      [
        ("lib/core/exec.ml", l14_exec_stub);
        ("lib/core/adaptive_executor.ml", l14_control);
      ]
  in
  Alcotest.(check int) "on_conn_exn is out of scope" 0 (List.length fs)

(* The bound-execute and local-execution dispatches obey the same
   discipline: one violating, one clean and one escape-hatch fixture
   each, [call] being the dispatch with its snapshot argument spliced in
   at [%s]. *)
let l14_primitive_fixtures call =
  let dispatch snap = Printf.sprintf call snap in
  ( Printf.sprintf "let execute t conn s x = ignore (%s)\n" (dispatch ""),
    Printf.sprintf "let execute t conn s x snap = ignore (%s)\n"
      (dispatch "?snapshot:snap "),
    Printf.sprintf "let execute t conn s x = ignore ((%s) [@lint.latest])\n"
      (dispatch "") )

let test_l14_primitive call () =
  let violating, clean, escape = l14_primitive_fixtures call in
  let run_fixture src =
    run "L14"
      [
        ("lib/core/exec.ml", l14_exec_stub);
        ("lib/core/adaptive_executor.ml", src);
      ]
  in
  Alcotest.(check (list string)) "violating is flagged" [ "L14" ]
    (ids (run_fixture violating));
  Alcotest.(check int) "?snapshot passes" 0 (List.length (run_fixture clean));
  Alcotest.(check int) "[@lint.latest] is trusted" 0
    (List.length (run_fixture escape))

(* --- L15 no-reparse --- *)

let l15_parser_stub = {|let parse_statement sql = ignore sql
|}

let l15_connection_stub = {|let exec_ast conn stmt = Parser.parse_statement (conn ^ stmt)
|}

(* the route reaches a parse through a helper; a parse off the route
   and one past the wire boundary are not findings *)
let l15_api =
  {|let shape_of sql = Parser.parse_statement sql

let route conn sql = ignore (shape_of sql); Connection.exec_ast conn sql

let explain sql = Parser.parse_statement sql
|}

let l15_api_clean =
  {|let route conn stmt = Connection.exec_ast conn stmt

let explain sql = Parser.parse_statement sql
|}

let l15_api_annotated =
  {|let route sql = (Parser.parse_statement sql [@lint.reparse])
|}

let l15_run api =
  run "L15"
    [
      ("lib/sqlfront/parser.ml", l15_parser_stub);
      ("lib/cluster/connection.ml", l15_connection_stub);
      ("lib/core/api.ml", api);
    ]

let test_l15_violating () =
  let fs = l15_run l15_api in
  Alcotest.(check (list string)) "one L15" [ "L15" ] (ids fs);
  Alcotest.(check (list int)) "the helper's parse" [ 1 ] (lines fs)

let test_l15_clean () =
  Alcotest.(check int) "wire and off-route parses pass" 0
    (List.length (l15_run l15_api_clean))

let test_l15_escape () =
  Alcotest.(check int) "[@lint.reparse] is trusted" 0
    (List.length (l15_run l15_api_annotated))

(* the statement cache's hit path is the second root: a parse it
   reaches is flagged, the miss path's parse is not *)
let l15_stmt_cache =
  {|let bind text = Parser.parse_statement text

let hit t text = if t then Some (bind text) else None

let parse t text = match hit t text with Some s -> s | None -> Parser.parse_statement text
|}

let test_l15_stmt_cache () =
  let fs =
    run "L15"
      [
        ("lib/sqlfront/parser.ml", l15_parser_stub);
        ("lib/sqlfront/stmt_cache.ml", l15_stmt_cache);
        ("lib/core/api.ml", l15_api_clean);
      ]
  in
  Alcotest.(check (list string)) "one L15" [ "L15" ] (ids fs);
  Alcotest.(check (list int)) "the hit path's parse" [ 1 ] (lines fs)

(* --- call-graph builder --- *)

let build sources =
  Callgraph.build
    (List.map
       (fun (path, src) -> (path, Lint_engine.parse_impl ~path src))
       sources)

let find_fn g m v =
  match Callgraph.find g { Callgraph.m; v } with
  | fn :: _ -> fn
  | [] -> Alcotest.failf "function %s.%s not in graph" m v

let test_cg_cross_module () =
  let g =
    build
      [
        ("lib/core/a.ml", "let target x = x\n");
        ("lib/core/b.ml", "let use x = Citus.A.target x\n");
      ]
  in
  let use = find_fn g "B" "use" in
  match use.Callgraph.f_sites with
  | [ s ] ->
    (match Callgraph.resolved g s with
     | Some { Callgraph.m = "A"; v = "target" } -> ()
     | _ -> Alcotest.fail "cross-module edge not resolved");
    (match s.Callgraph.s_kind with
     | Callgraph.Call { labels = [] } -> ()
     | _ -> Alcotest.fail "expected an application site")
  | sites -> Alcotest.failf "expected one site, got %d" (List.length sites)

let test_cg_alias () =
  let g =
    build
      [
        ("lib/core/a.ml", "let target x = x\n");
        ("lib/core/b.ml", "let alias = A.target\n");
        ("lib/core/c.ml", "let use x = B.alias x\n");
      ]
  in
  let use = find_fn g "C" "use" in
  match use.Callgraph.f_sites with
  | [ s ] -> (
    match Callgraph.resolved g s with
    | Some { Callgraph.m = "A"; v = "target" } -> ()
    | Some other ->
      Alcotest.failf "alias chased to %s" (Callgraph.id_str other)
    | None -> Alcotest.fail "alias not resolved")
  | sites -> Alcotest.failf "expected one site, got %d" (List.length sites)

let test_cg_higher_order () =
  (* passing a known function as a value is a conservative edge: the
     suspension fact flows through it *)
  let g =
    build
      [
        ("lib/core/a.ml", "let poke sched = Sim.Sched.yield sched\n");
        ("lib/core/b.ml", "let spread l = List.map A.poke l\n");
      ]
  in
  let fact = Suspend.facts g in
  Alcotest.(check bool) "value use propagates suspension" true
    (fact { Callgraph.m = "B"; v = "spread" })

let test_cg_cycle () =
  (* mutual recursion across modules: the fixpoint terminates and both
     sides carry the fact *)
  let g =
    build
      [
        ( "lib/core/a.ml",
          "let ping sched = ignore (B.pong sched); Sim.Sched.yield sched\n" );
        ("lib/core/b.ml", "let pong sched = A.ping sched\n");
      ]
  in
  let fact = Suspend.facts g in
  Alcotest.(check bool) "cycle converges: A.ping suspends" true
    (fact { Callgraph.m = "A"; v = "ping" });
  Alcotest.(check bool) "cycle converges: B.pong suspends" true
    (fact { Callgraph.m = "B"; v = "pong" })

let test_cg_local_open () =
  (* unqualified names resolve through a local module open *)
  let g =
    build
      [
        ("lib/core/a.ml", "let target x = x\n");
        ("lib/core/b.ml", "let use x = A.(target x)\n");
      ]
  in
  let use = find_fn g "B" "use" in
  let resolved_targets =
    List.filter_map (fun s -> Callgraph.resolved g s) use.Callgraph.f_sites
  in
  Alcotest.(check bool) "open-scoped call resolved" true
    (List.exists
       (fun { Callgraph.m; v } -> m = "A" && v = "target")
       resolved_targets)

(* --- findings output --- *)

let test_sexp_rendering () =
  let f =
    {
      Rule.rule_id = "L10";
      file = "lib/core/fx.ml";
      line = 3;
      col = 7;
      message = {|say "hi"|};
    }
  in
  Alcotest.(check string) "canonical form"
    {|((rule L10) (file "lib/core/fx.ml") (line 3) (col 7) (message "say \"hi\""))|}
    (Lint_engine.finding_sexp f)

(* --- registry and baseline --- *)

let test_registry () =
  Alcotest.(check int) "fourteen rules" 14 (List.length Registry.all);
  List.iter
    (fun id ->
      match Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "rule %s not registered" id)
    [ "L1"; "L2"; "L3"; "L4"; "L5"; "L6"; "L7"; "L8"; "L10"; "L11"; "L12";
      "L13"; "L14"; "L15"; "sql-injection"; "determinism";
      "lock-order"; "span-conservation"; "transitive-blocking";
      "cancel-safety"; "deadline-propagation"; "metric-registry";
      "snapshot-discipline"; "no-reparse" ]

(* tools/lint/README.md's rule table and the registry agree both ways:
   every registered rule has exactly one row, under its own name, and
   every row names a registered rule *)
let test_readme_table () =
  let rows =
    In_channel.with_open_text "../tools/lint/README.md" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match List.map String.trim (String.split_on_char '|' line) with
           | "" :: id :: name :: _
             when id <> "ID" && not (String.starts_with ~prefix:"-" id) ->
             Some (id, name)
           | _ -> None)
  in
  List.iter
    (fun (module R : Rule.S) ->
      match List.filter (fun (id, _) -> String.equal id R.id) rows with
      | [ (_, name) ] -> Alcotest.(check string) (R.id ^ " row name") R.name name
      | l -> Alcotest.failf "rule %s has %d README rows" R.id (List.length l))
    Registry.all;
  List.iter
    (fun (id, _) ->
      if Registry.find id = None then
        Alcotest.failf "README row %s names no registered rule" id)
    rows

let test_explanations () =
  (* --explain depends on every rule shipping a non-trivial rationale *)
  List.iter
    (fun (module R : Rule.S) ->
      if String.length R.explain < 80 then
        Alcotest.failf "rule %s has no real explanation" R.id)
    Registry.all

let test_baseline_empty () =
  (* the live baseline must stay empty: new findings are fixed, not
     grandfathered (shrink-only policy, tools/lint/README.md) *)
  let entries = Lint_engine.load_baseline "../tools/lint/baseline.sexp" in
  Alcotest.(check int) "no grandfathered findings" 0 (List.length entries)

let test_baseline_parse () =
  let entries =
    Lint_engine.parse_sexps
      "; comment\n(L3 lib/core/api.ml 16)\n(L1 \"lib/core/tenant.ml\" 94)\n"
  in
  Alcotest.(check int) "two entries plus comment" 2 (List.length entries)

let () =
  Alcotest.run "lint"
    [
      ( "l1-sql-injection",
        [
          Alcotest.test_case "violating" `Quick test_l1_violating;
          Alcotest.test_case "clean" `Quick test_l1_clean;
        ] );
      ( "l2-determinism",
        [
          Alcotest.test_case "violating" `Quick test_l2_violating;
          Alcotest.test_case "clean" `Quick test_l2_clean;
          Alcotest.test_case "sim exempt" `Quick test_l2_sim_exempt;
        ] );
      ( "l3-exception-hygiene",
        [
          Alcotest.test_case "violating" `Quick test_l3_violating;
          Alcotest.test_case "protected" `Quick test_l3_protected;
          Alcotest.test_case "scope" `Quick test_l3_scope;
        ] );
      ("l4-mli-coverage", [ Alcotest.test_case "coverage" `Quick test_l4 ]);
      ( "l5-no-catch-all",
        [
          Alcotest.test_case "violating" `Quick test_l5_violating;
          Alcotest.test_case "clean" `Quick test_l5_clean;
          Alcotest.test_case "scope" `Quick test_l5_scope;
        ] );
      ( "l6-twopc-state-machine",
        [
          Alcotest.test_case "violating" `Quick test_l6_violating;
          Alcotest.test_case "clean" `Quick test_l6_clean;
          Alcotest.test_case "delegated resolutions" `Quick test_l6_delegated;
          Alcotest.test_case "scope" `Quick test_l6_scope;
        ] );
      ( "l7-lock-order",
        [
          Alcotest.test_case "violating" `Quick test_l7_violating;
          Alcotest.test_case "clean" `Quick test_l7_clean;
          Alcotest.test_case "scope" `Quick test_l7_scope;
        ] );
      ( "l8-span-conservation",
        [
          Alcotest.test_case "violating" `Quick test_l8_violating;
          Alcotest.test_case "clean" `Quick test_l8_clean;
          Alcotest.test_case "scope" `Quick test_l8_scope;
        ] );
      ( "l10-transitive-blocking",
        [
          Alcotest.test_case "direct violating" `Quick test_direct_violating;
          Alcotest.test_case "direct clean" `Quick test_direct_clean;
          Alcotest.test_case "direct scope" `Quick test_direct_scope;
          Alcotest.test_case "violating" `Quick test_l10_violating;
          Alcotest.test_case "clean" `Quick test_l10_clean;
          Alcotest.test_case "dual mode" `Quick test_l10_dual_mode;
          Alcotest.test_case "?sched body" `Quick test_l10_opt_sched_body;
          Alcotest.test_case "scope" `Quick test_l10_scope;
        ] );
      ( "l11-cancel-safety",
        [
          Alcotest.test_case "violating" `Quick test_l11_violating;
          Alcotest.test_case "clean" `Quick test_l11_clean;
          Alcotest.test_case "transitive" `Quick test_l11_transitive;
        ] );
      ( "l12-deadline-propagation",
        [
          Alcotest.test_case "violating" `Quick test_l12_violating;
          Alcotest.test_case "clean" `Quick test_l12_clean;
          Alcotest.test_case "escape" `Quick test_l12_escape;
          Alcotest.test_case "unreachable" `Quick test_l12_unreachable;
          Alcotest.test_case "twopc entry" `Quick test_l12_twopc_entry;
        ] );
      ( "l13-metric-registry",
        [
          Alcotest.test_case "violating" `Quick test_l13_violating;
          Alcotest.test_case "clean" `Quick test_l13_clean;
          Alcotest.test_case "scope" `Quick test_l13_scope;
        ] );
      ( "l14-snapshot-discipline",
        [
          Alcotest.test_case "violating" `Quick test_l14_violating;
          Alcotest.test_case "clean" `Quick test_l14_clean;
          Alcotest.test_case "escape" `Quick test_l14_escape;
          Alcotest.test_case "unreachable" `Quick test_l14_unreachable;
          Alcotest.test_case "control statements" `Quick
            test_l14_control_statements;
          Alcotest.test_case "bound execute" `Quick
            (test_l14_primitive
               "Exec.bound_on_conn_exn ~deadline:1.0 %st conn x");
          Alcotest.test_case "local execution" `Quick
            (test_l14_primitive "Exec.local_exn %ss x");
        ] );
      ( "l15-no-reparse",
        [
          Alcotest.test_case "violating" `Quick test_l15_violating;
          Alcotest.test_case "clean" `Quick test_l15_clean;
          Alcotest.test_case "escape" `Quick test_l15_escape;
          Alcotest.test_case "statement cache hit" `Quick test_l15_stmt_cache;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "cross-module edge" `Quick test_cg_cross_module;
          Alcotest.test_case "alias chase" `Quick test_cg_alias;
          Alcotest.test_case "higher-order" `Quick test_cg_higher_order;
          Alcotest.test_case "cycle" `Quick test_cg_cycle;
          Alcotest.test_case "local open" `Quick test_cg_local_open;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "README rule table" `Quick test_readme_table;
          Alcotest.test_case "explanations" `Quick test_explanations;
          Alcotest.test_case "sexp rendering" `Quick test_sexp_rendering;
          Alcotest.test_case "baseline empty" `Quick test_baseline_empty;
          Alcotest.test_case "baseline parse" `Quick test_baseline_parse;
        ] );
    ]
