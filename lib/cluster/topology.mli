(** Simulated cluster: named MiniPG nodes plus a network model.

    Every node runs a full {!Engine.Instance.t}. The "network" is
    in-process: a {!Connection.t} wraps a session on a remote node and
    counts round trips and connection establishments, which the benchmark
    harness prices via {!Sim.Cost}. A shared virtual {!Sim.Clock.t} drives
    time-based behavior (slow-start, deadlock polling). *)

(** Whether a node may plan distributed queries and open 2PC. The
    bootstrap node starts as [Coordinator]; workers start as [Worker]
    and are promoted by metadata sync (Citus MX: any synced node can
    coordinate). *)
type role = Coordinator | Worker

type node = {
  node_name : string;
  instance : Engine.Instance.t;
  spec : Sim.Cost.node_spec;
  mutable role : role;
}

type net_stats = {
  mutable round_trips : int;
  mutable cross_round_trips : int;
      (** round trips whose endpoints are different nodes: these pay the
          network latency; a coordinator talking to its own shards does
          not *)
  mutable connections_opened : int;
  mutable rows_shipped : int;  (** rows moved between nodes *)
}

(** What drives the cluster, so what a wait does ({!wait_until}):
    nothing (set-up, DDL, maintenance), a {!Sim.Sched} run
    ([Citus.State.with_sched]), or one task on the caller's stack,
    planned on the named node. *)
type driver = Unscheduled | Fibers of Sim.Sched.t | Lone of string

type t = {
  coordinator : node;
  workers : node list;  (** empty = single-node cluster (Citus 0+1) *)
  clock : Sim.Clock.t;
  clock_now : unit -> float;  (** the thunk {!now} returns, made once *)
  rtt : float;
  net : net_stats;
  fault : Sim.Fault.t option;
      (** fault-injection plan; [None] = perfect network, nothing fails *)
  mutable sched_seed : int option;
      (** seed for {!Sim.Sched} ready-queue tiebreaks: [None] (default)
          is strict round-robin; chaos tests set a seed to fuzz fiber
          interleavings deterministically *)
  mutable driver : driver;
      (** what a wait does right now; see {!wait_until} *)
  retry_rng : Random.State.t;
      (** topology-owned jitter stream for retry backoff, seeded from
          [fault_seed]; see {!retry_jitter} *)
  obs : Obs.t;
      (** cluster-wide observability: one metrics registry (always on,
          with every node's meter folded in) and one trace sink
          (disabled until someone turns it on) *)
  hlcs : (string, Txn.Hlc.t) Hashtbl.t;
      (** per-node hybrid logical clocks (plus ["client"]); access via
          {!hlc} *)
}

(** [create ~workers:n ()] builds a coordinator plus [n] workers.
    [buffer_pages] applies per node. [fault_seed] attaches a
    {!Sim.Fault.t} (sharing this cluster's clock, all nodes registered)
    so connections consult it on every round trip. [sched_seed] seeds
    the cooperative scheduler's ready-queue tiebreaks. *)
val create :
  ?buffer_pages:int ->
  ?spec:Sim.Cost.node_spec ->
  ?rtt:float ->
  ?fault_seed:int ->
  ?sched_seed:int ->
  workers:int ->
  unit ->
  t

val fault : t -> Sim.Fault.t option

(** [hlc t name] is the hybrid logical clock of node [name] (or
    ["client"]), created on first use. Its physical component reads the
    shared virtual clock through the node's injected skew
    ({!Sim.Fault.skewed_now}); {!Connection} piggybacks these stamps on
    every round trip, and each node's {!Txn.Manager} stamps commits
    with its own. The clock state deliberately survives node crashes. *)
val hlc : t -> string -> Txn.Hlc.t

val obs : t -> Obs.t

val metrics : t -> Obs.Metrics.t

val trace : t -> Obs.Trace.t

(** Timestamp thunk reading the shared virtual clock — what every
    {!Obs.Trace.with_span} in this cluster passes as [~now]. *)
val now : t -> unit -> float

(** Fire scheduled fault events that are due at the current virtual
    time. Called by {!Connection} before each connect / round trip. *)
val fault_tick : t -> unit

(** [with_driver t d f] makes [d] the cluster's driver for the extent
    of [f], restoring the previous one after (nesting is fine). *)
val with_driver : t -> driver -> (unit -> 'a) -> 'a

(** Let virtual time pass until [until_] (nothing when it is already
    past) as the current {!driver} says, then fire the fault tick: a
    fiber sleep under [Fibers] (other fibers keep running), a plain
    clock advance otherwise, stretched under [Lone] by one
    suspension-hazard draw. {!Connection.await} waits for a reply here,
    and a lone task's modelled cost is slept here too. *)
val wait_until : t -> until_:float -> unit

(** One jitter draw in [0, 1) from the topology's own seeded stream —
    for spreading retry backoffs so storms against a recovering node
    don't synchronize. Deterministic per [fault_seed]. *)
val retry_jitter : t -> float

(** Node liveness / directed-route health per the fault plan (always
    [true] without one). [route_up] requires the destination alive and
    both link directions intact. *)
val node_up : t -> string -> bool

val route_up : t -> from_:string -> to_:string -> bool

(** Nodes that store shards: the workers, or the coordinator alone when
    there are none (the paper's "coordinator also acts as worker"). *)
val data_nodes : t -> node list

val all_nodes : t -> node list

val find_node : t -> string -> node

val set_role : node -> role -> unit

(** Nodes whose current role is [Coordinator], in topology order
    (bootstrap coordinator first). *)
val coordinators : t -> node list

(** Copy of the network counters (for before/after diffs). *)
val net_snapshot : t -> net_stats

val net_diff : after:net_stats -> before:net_stats -> net_stats
