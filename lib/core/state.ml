type consistency = Eventual | Read_your_writes | Snapshot

let consistency_of_string = function
  | "eventual" -> Some Eventual
  | "read_your_writes" -> Some Read_your_writes
  | "snapshot" -> Some Snapshot
  | _ -> None

let consistency_to_string = function
  | Eventual -> "eventual"
  | Read_your_writes -> "read_your_writes"
  | Snapshot -> "snapshot"

type config = {
  mutable pool_size_per_node : int;
  mutable shared_connection_limit : int;
  mutable slow_start_interval : float;
  mutable max_parallel_moves : int;
  mutable statement_timeout : float;
  mutable hedge_threshold : float;
  mutable move_timeout : float;
      (** per-shard-move deadline for the rebalancer (seconds of virtual
          time; 0 = unbounded) *)
  mutable consistency : consistency;
      (** distributed read consistency level (citus.consistency) *)
  mutable plan_cache_size : int;
      (** LRU bound on cached prepared-statement plan shapes
          (citus.plan_cache_size; 0 disables the cache) *)
}

type session_state = {
  skey : string * int;
  mutable pools : (string * Cluster.Connection.t list) list;
  mutable affinity : ((string * int) * Cluster.Connection.t) list;
  mutable txn_conns : Cluster.Connection.t list;
  mutable prepared : (Cluster.Connection.t * string) list;
  mutable dist_xids : (string * int) list;
  mutable commit_hlc : Txn.Hlc.timestamp option;
      (** distributed commit timestamp assigned after a successful
          PREPARE phase; stamped onto every COMMIT PREPARED fan-out *)
}

type t = {
  cluster : Cluster.Topology.t;
  metadata : Metadata.t;
  local : Cluster.Topology.node;
  config : config;
  health : Health.t;
  sessions : ((string * int), session_state) Hashtbl.t;
  mutable recent : (Engine.Instance.session * session_state) option;
  shared_counters : (string, int ref) Hashtbl.t;
  registry : ((string * int), string * int) Hashtbl.t;
  mutable partitioned : string list;
  mutable injected_failures : (string * string) list;
  mutable next_gid_seq : int;
}

exception Network_error of string

exception Txn_replica_lost of string

let default_config () =
  {
    pool_size_per_node = 16;
    shared_connection_limit = 100;
    slow_start_interval = 0.010;
    max_parallel_moves = 4;
    statement_timeout = 0.0;
    hedge_threshold = 0.0;
    move_timeout = 0.0;
    consistency = Eventual;
    plan_cache_size = 128;
  }

let create ~cluster ~metadata ~config ~local ~registry =
  {
    cluster;
    metadata;
    local;
    config;
    health =
      Health.create
        ~metrics:(Cluster.Topology.metrics cluster)
        ~clock:cluster.Cluster.Topology.clock ();
    sessions = Hashtbl.create 64;
    recent = None;
    shared_counters = Hashtbl.create 8;
    registry;
    partitioned = [];
    injected_failures = [];
    next_gid_seq = 1;
  }

let session_state t (s : Engine.Instance.session) =
  match t.recent with
  | Some (s', st) when s' == s -> st
  | _ ->
    let key =
      ( Engine.Instance.name (Engine.Instance.session_instance s),
        Engine.Instance.session_id s )
    in
    let st =
      match Hashtbl.find_opt t.sessions key with
      | Some st -> st
      | None ->
        let st =
          { skey = key; pools = []; affinity = []; txn_conns = []; prepared = [];
            dist_xids = []; commit_hlc = None }
        in
        Hashtbl.replace t.sessions key st;
        st
    in
    t.recent <- Some (s, st);
    st

let counter t node =
  match Hashtbl.find_opt t.shared_counters node with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.shared_counters node r;
    r

let shared_count t node = !(counter t node)

let pool_of st node =
  Option.value ~default:[] (List.assoc_opt node st.pools)

let set_pool st node conns =
  st.pools <- (node, conns) :: List.remove_assoc node st.pools

(* Open one more connection to [node] if the per-session pool size and the
   cluster-wide shared limit allow it ([force] bypasses both, for the first
   connection a statement cannot do without). *)
let checkout t st ?(force = false) (node : Cluster.Topology.node) =
  let name = node.Cluster.Topology.node_name in
  let existing = pool_of st name in
  let cnt = counter t name in
  let can_open =
    force
    || (List.length existing < t.config.pool_size_per_node
        && !cnt < t.config.shared_connection_limit)
  in
  if can_open then begin
    let conn =
      Cluster.Connection.open_
        ~origin:t.local.Cluster.Topology.node_name t.cluster node
    in
    incr cnt;
    set_pool st name (existing @ [ conn ]);
    Some conn
  end
  else None

let pooled_connection t st node_name =
  match pool_of st node_name with
  | conn :: _ -> conn
  | [] -> (
    match
      checkout t st ~force:true (Cluster.Topology.find_node t.cluster node_name)
    with
    | Some conn -> conn
    | None -> assert false (* a forced checkout always opens *))

let runs_locally t session node_name =
  String.equal node_name t.local.Cluster.Topology.node_name
  && Engine.Instance.session_instance session
     == t.local.Cluster.Topology.instance

let check_reachable t node_name =
  if List.mem node_name t.partitioned then
    raise (Network_error (Printf.sprintf "node %s is unreachable" node_name))

let check_injected t node sql =
  List.iter
    (fun (n, pattern) ->
      if
        String.equal n node
        && Engine.Expr_eval.like_match ~pattern:("%" ^ pattern ^ "%") ~ci:false
             sql
      then
        raise
          (Network_error
             (Printf.sprintf "injected failure on %s for %S" node pattern)))
    t.injected_failures

let node_available t node = Health.available t.health node

(* One cooperative-scheduler run wired to this cluster: ready-queue
   tiebreaks come from the topology's [sched_seed] and every virtual
   clock jump fires the fault plan's tick, so scheduled crashes and
   partitions land between fiber slices at their virtual times. For the
   run's extent the scheduler is also the cluster's driver
   ([Topology.with_driver]) — [Connection.await] passes injected
   latency as fiber sleeps — and every fiber suspension point draws from
   the fault plan's suspension hazard. *)
let with_sched t f =
  Sim.Sched.run
    ?seed:t.cluster.Cluster.Topology.sched_seed
    ~on_advance:(fun () -> Cluster.Topology.fault_tick t.cluster)
    ~on_suspend:(fun ~node ->
      match t.cluster.Cluster.Topology.fault with
      | Some fault -> Sim.Fault.at_suspension fault ~node
      | None -> 0.0)
    ~clock:t.cluster.Cluster.Topology.clock
    (fun sched ->
      Cluster.Topology.with_driver t.cluster (Cluster.Topology.Fibers sched)
        (fun () -> f sched))

(* Bounded retry for transient network errors against one node. Waits the
   breaker's current backoff on the simulated clock between attempts —
   stretched by a bounded draw from the topology's jitter stream (up to
   +50%) so concurrent retriers against a recovering node spread out
   instead of stampeding in lockstep; still deterministic per seed. *)
let with_retry ?(attempts = 3) t ~node f =
  let rec go n =
    try f ()
    with (Network_error _ | Cluster.Connection.Node_unavailable _) as e ->
      if n <= 1 then raise e
      else begin
        Sim.Clock.advance t.cluster.Cluster.Topology.clock
          (Health.retry_backoff t.health node
          *. (1.0 +. (0.5 *. Cluster.Topology.retry_jitter t.cluster)));
        go (n - 1)
      end
  in
  go (max 1 attempts)

(* Per-node gid namespaces (MX): the coordinating node's name is baked
   into the gid, so any node can tell from a prepared transaction alone
   which coordinator's commit records decide it. Node names
   ("coordinator", "workerN", …) contain no underscores, keeping the
   4-component split unambiguous. *)
let fresh_gid t ~coord_xid =
  let seq = t.next_gid_seq in
  t.next_gid_seq <- seq + 1;
  Printf.sprintf "citus_%s_%d_%d" t.local.Cluster.Topology.node_name coord_xid
    seq

let parse_gid gid =
  match String.split_on_char '_' gid with
  | [ "citus"; node; xid; _seq ] ->
    (match int_of_string_opt xid with
     | Some x -> Some (node, x)
     | None -> None)
  | _ -> None

let inject_failure t ~node ~matching =
  t.injected_failures <- (node, matching) :: t.injected_failures

let clear_failures t = t.injected_failures <- []

let partition_node t name =
  if not (List.mem name t.partitioned) then t.partitioned <- name :: t.partitioned

let heal_node t name =
  t.partitioned <- List.filter (fun n -> not (String.equal n name)) t.partitioned

let reachable t name =
  (not (List.mem name t.partitioned))
  && Cluster.Topology.route_up t.cluster
       ~from_:t.local.Cluster.Topology.node_name ~to_:name

let reset_sessions t =
  Hashtbl.reset t.sessions;
  t.recent <- None;
  Hashtbl.reset t.shared_counters

(* A node crashed: its pooled connections are dead, drop them and give
   their slots back to the shared counters. Connections recorded in
   [txn_conns] / [affinity] are deliberately kept — they belong to an
   in-flight distributed transaction, and silently forgetting a
   participant would let the survivors commit without it. The dead
   connection fails the next statement instead, aborting the transaction
   the honest way. *)
let purge_node_conns t name =
  Hashtbl.iter
    (fun _ st ->
      match List.assoc_opt name st.pools with
      | None | Some [] -> ()
      | Some conns ->
        st.pools <- List.remove_assoc name st.pools;
        let cnt = counter t name in
        cnt := max 0 (!cnt - List.length conns))
    t.sessions

(* Leak accounting for the chaos invariants: once every statement has
   completed (or timed out and been cancelled) and all transactions have
   resolved, no session may still pin transaction connections or hold
   un-committed prepared pairs. Pooled idle connections are fine — pools
   exist to be reused. *)
let leaked_txn_conns t =
  Hashtbl.fold
    (fun _ st acc -> acc + List.length st.txn_conns)
    t.sessions 0

let leaked_prepared t =
  Hashtbl.fold (fun _ st acc -> acc + List.length st.prepared) t.sessions 0

(* This extension's own node crashed: every worker holding an open
   transaction for one of our sessions sees its client vanish and rolls
   back server-side (prepared transactions are detached from sessions
   and survive untouched). Then all session bookkeeping dies with us. *)
let crash_local_sessions t =
  Hashtbl.iter
    (fun _ st ->
      List.iter
        (fun conn ->
          Engine.Instance.abort_session (Cluster.Connection.session conn))
        st.txn_conns)
    t.sessions;
  reset_sessions t
