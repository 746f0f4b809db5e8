(** The adaptive executor (§3.6.1).

    Runs a distributed plan's tasks as concurrent {!Sim.Sched} fibers
    over per-session connection pools — except a task placed on the
    session's own node, which runs in the session's own transaction
    ({!Exec.local_exn}, §4j of DESIGN.md) — respecting:

    - {b connection affinity}: inside a transaction, the same shard group
      on the same node always reuses the same connection, so uncommitted
      writes and locks stay visible to later statements. Tasks that pin
      the same (node, shard-group) key are chained into one fiber in
      plan order, so the affinity connection is established exactly once;
    - {b replication and failover}: a write whose shard has several active
      placements runs on every replica (statement-based replication, §3.3);
      replicas that fail are marked {!Metadata.Inactive} as long as one
      succeeded. A read failing with {!State.Network_error} outside an
      explicit transaction fails over to the next active replica;
    - {b transaction blocks}: remote writes (and any remote statement in
      an explicit transaction) run inside [BEGIN] on the worker
      connection; commit happens later through {!Twopc}'s callbacks;
    - {b the shared connection limit}: new connections are only opened
      while the cluster-wide per-worker count is below the limit;
    - {b slow start}: the k-th connection a statement opens to a node
      becomes available at [k * slow_start_interval] on the virtual
      clock — the opening fiber sleeps until its ramp gate. Each fragment
      then occupies its connection for its modeled duration (a virtual
      sleep), so the statement's makespan is {e measured} off the clock,
      not reconstructed afterwards. *)

type report = {
  makespan : float;
      (** virtual-clock elapsed from dispatch to last fragment completion *)
  connections_used : (string * int) list;
      (** per node, connections that ran at least one fragment *)
  conn_opened_at : (string * float list) list;
      (** per node, virtual times at which this statement opened {e new}
          connections — the slow-start ramp, in open order *)
  round_trips : int;  (** network round trips incurred by the tasks *)
  serial_time : float;  (** sum of all fragment durations (1-connection time) *)
  node_serial : (string * float) list;
      (** per node, sum of fragment durations — the per-node serial floor
          the concurrent makespan is compared against *)
}

(** Mark the placement of [shard_id] on [node] — plus its colocated
    siblings on that node — {!Metadata.Inactive}. Used when a replicated
    write or COPY loses one replica but survives on another. *)
val mark_placement_lost : State.t -> shard_id:int -> node:string -> unit

(** Execute tasks concurrently under {!State.with_sched}, or a lone
    task that cannot hedge directly on the caller's stack; returns
    per-task results (aligned with the input order) and the report. Raises whatever task execution raises
    ({!Engine.Executor.Would_block}, {!State.Network_error},
    {!State.Txn_replica_lost}, ...). With [?bound], every task (a
    plan-cache hit has one) runs as a bound execute of its worker-side
    statement ({!Exec.bound_on_conn_exn}) instead of deparsed text. *)
val execute :
  ?bound:Exec.bound ->
  State.t ->
  Engine.Instance.session ->
  Plan.task list ->
  Engine.Instance.result list * report
