type role = Coordinator | Worker

type node = {
  node_name : string;
  instance : Engine.Instance.t;
  spec : Sim.Cost.node_spec;
  mutable role : role;
}

type net_stats = {
  mutable round_trips : int;
  mutable cross_round_trips : int;  (** round trips that leave the node *)
  mutable connections_opened : int;
  mutable rows_shipped : int;
}

type driver = Unscheduled | Fibers of Sim.Sched.t | Lone of string

type t = {
  coordinator : node;
  workers : node list;
  clock : Sim.Clock.t;
  clock_now : unit -> float;
  rtt : float;
  net : net_stats;
  fault : Sim.Fault.t option;
  mutable sched_seed : int option;
      (** seeds {!Sim.Sched} ready-queue tiebreaks (chaos fuzzing);
          [None] = strict round-robin *)
  mutable driver : driver;
      (** what a wait does: a fiber sleep under the scheduler set for
          the dynamic extent of [Citus.State.with_sched], a clock advance
          otherwise *)
  retry_rng : Random.State.t;
      (** topology-owned stream for retry-backoff jitter; deterministic
          per [fault_seed] and untouched by the fault plan's own draws *)
  obs : Obs.t;  (** cluster-wide metrics registry + trace sink *)
  hlcs : (string, Txn.Hlc.t) Hashtbl.t;
      (** one hybrid logical clock per node (plus ["client"]), physical
          component = virtual clock + the node's injected skew;
          {!Connection} piggybacks these on every round trip *)
}

(* Each node's HLC reads the shared virtual clock through its own skew
   lens; a skewed node believes a different "now" and the logical
   component has to absorb the difference. Created on first use — the
   clocks are independent, so creation order is immaterial. *)
let hlc t name =
  match Hashtbl.find_opt t.hlcs name with
  | Some h -> h
  | None ->
    let physical () =
      match t.fault with
      | Some f -> Sim.Fault.skewed_now f name
      | None -> Sim.Clock.now t.clock
    in
    let h = Txn.Hlc.create ~physical () in
    Hashtbl.add t.hlcs name h;
    h

let create ?(buffer_pages = 100_000) ?(spec = Sim.Cost.default_spec)
    ?(rtt = Sim.Cost.default_rtt) ?fault_seed ?sched_seed ~workers () =
  let obs = Obs.create () in
  let make name seed role =
    {
      node_name = name;
      instance = Engine.Instance.create ~seed ~buffer_pages ~obs ~name ();
      spec;
      role;
    }
  in
  let coordinator = make "coordinator" 1 Coordinator in
  let workers =
    List.init workers (fun i ->
        make (Printf.sprintf "worker%d" (i + 1)) (i + 2) Worker)
  in
  let clock = Sim.Clock.create () in
  let fault =
    match fault_seed with
    | None -> None
    | Some seed ->
      let f = Sim.Fault.create ~seed ~clock () in
      List.iter
        (fun n -> Sim.Fault.register_node f ~name:n.node_name n.instance)
        (coordinator :: workers);
      Some f
  in
  let net =
    {
      round_trips = 0;
      cross_round_trips = 0;
      connections_opened = 0;
      rows_shipped = 0;
    }
  in
  (* Network stats fold into snapshots next to the per-node meters. *)
  Obs.Metrics.register_probe obs.Obs.metrics Obs.Metric_names.net_probe_prefix (fun () ->
      [
        ("round_trips", net.round_trips);
        ("cross_round_trips", net.cross_round_trips);
        ("connections_opened", net.connections_opened);
        ("rows_shipped", net.rows_shipped);
      ]);
  let t =
    {
      coordinator;
      workers;
      clock;
      clock_now = (fun () -> Sim.Clock.now clock);
      rtt;
      net;
      fault;
      sched_seed;
      driver = Unscheduled;
      retry_rng =
        Random.State.make [| 0x7177; Option.value ~default:0 fault_seed |];
      obs;
      hlcs = Hashtbl.create 8;
    }
  in
  (* Install each node's HLC into its transaction manager so every
     commit is stamped with cluster time. The clock object lives here,
     outside the node, so its state survives a node crash — modeling a
     recovering node that waits out clock uncertainty before issuing
     timestamps. *)
  List.iter
    (fun n -> Engine.Instance.set_hlc n.instance (hlc t n.node_name))
    (coordinator :: workers);
  t

let obs t = t.obs

let metrics t = t.obs.Obs.metrics

let trace t = t.obs.Obs.trace

(* [now t] is the thunk every span in this cluster uses as its
   timestamp source: the shared virtual clock. *)
let now t = t.clock_now

let fault t = t.fault

(* Fire any scheduled faults whose virtual time has come. *)
let fault_tick t =
  match t.fault with None -> () | Some f -> Sim.Fault.tick f

(* Scope the driver: set for the extent of [f], restore the previous
   one after (with_sched nests, and so does a lone task inside it). *)
let with_driver t driver f =
  let prev = t.driver in
  t.driver <- driver;
  Fun.protect ~finally:(fun () -> t.driver <- prev) f

(* A lone task draws the hazard a fiber's sleep would have drawn, but
   advances the clock itself: no run loop is there to do it. *)
let wait_until t ~until_ =
  let now = Sim.Clock.now t.clock in
  if until_ > now then begin
    (match t.driver, t.fault with
     | Fibers sched, _ -> (Sim.Sched.sleep_until sched until_ [@lint.blocking])
     | Lone node, Some f ->
       Sim.Clock.advance t.clock (until_ +. Sim.Fault.at_suspension f ~node -. now)
     | (Lone _ | Unscheduled), _ -> Sim.Clock.advance t.clock (until_ -. now));
    fault_tick t
  end

(* One bounded jitter draw in [0, 1): callers scale a backoff by e.g.
   [1.0 +. 0.5 *. retry_jitter t] so synchronized retry storms against a
   recovering node spread out, deterministically per seed. *)
let retry_jitter t = Random.State.float t.retry_rng 1.0

let node_up t name =
  match t.fault with None -> true | Some f -> Sim.Fault.node_up f name

(* Both the request and the reply path must be intact, and the
   destination must be alive. [from_] is a node name or ["client"]. *)
let route_up t ~from_ ~to_ =
  match t.fault with
  | None -> true
  | Some f ->
    Sim.Fault.node_up f to_
    && Sim.Fault.link_up f ~from_ ~to_
    && Sim.Fault.link_up f ~from_:to_ ~to_:from_

let data_nodes t = match t.workers with [] -> [ t.coordinator ] | ws -> ws

let all_nodes t = t.coordinator :: t.workers

let set_role n role = n.role <- role

(* Nodes allowed to plan queries and open 2PC. The bootstrap
   coordinator always qualifies; workers join once metadata sync
   promotes them (Citus MX). *)
let coordinators t =
  List.filter (fun n -> n.role = Coordinator) (all_nodes t)

let find_node t name =
  match List.find_opt (fun n -> String.equal n.node_name name) (all_nodes t) with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "no node named %s" name)

let net_snapshot t =
  {
    round_trips = t.net.round_trips;
    cross_round_trips = t.net.cross_round_trips;
    connections_opened = t.net.connections_opened;
    rows_shipped = t.net.rows_shipped;
  }

let net_diff ~after ~before =
  {
    round_trips = after.round_trips - before.round_trips;
    cross_round_trips = after.cross_round_trips - before.cross_round_trips;
    connections_opened = after.connections_opened - before.connections_opened;
    rows_shipped = after.rows_shipped - before.rows_shipped;
  }
