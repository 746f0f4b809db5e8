(** The shard rebalancer (§3.4).

    A shard move mimics logical replication: a snapshot of the source shard
    is copied to the target while reads and writes continue; then writes
    are blocked briefly (an [Access_exclusive] lock on the source shard),
    the WAL delta accumulated since the copy started is applied to the
    target, metadata flips to the new placement, and the source shard is
    dropped. Co-located shards (same group index, other tables of the
    colocation group) move together so co-location is preserved.

    Policies: [By_shard_count] evens out the number of shards per node
    (the default), [By_size] evens out row counts. Users can supply a
    custom [cost] function, mirroring the SQL-definable policies of the
    real rebalancer. *)

type policy =
  | By_shard_count
  | By_size
  | Custom of (node:string -> shards:Metadata.shard list -> float)
      (** cost of a node given its shards; the rebalancer moves shards
          from the costliest node to the cheapest *)

type move = {
  moved_shards : int list;  (** shard ids moved together (colocated) *)
  from_node : string;
  to_node : string;
  rows_copied : int;
  catchup_records : int;  (** WAL records applied during the blocked window *)
}

exception Move_blocked of int list
(** A writer still holds locks on the shard; retry after it finishes. *)

(** [copy_shard_to st shard ~from_node ~to_node ~drop_source
    ~finish_metadata ()] copies one shard: destination schema from the
    table's logical definition ({!Ddl.shard_schema}, so index names are
    kept), snapshot copy, then WAL catch-up under a brief write lock on
    the source. A columnar shard, whose appends leave no WAL to catch up
    from, is copied whole under the lock, and only when [drop_source] is
    false. [finish_metadata] runs in the cutover window; [drop_source]
    drops the source copy (a move) or keeps it serving (a repair, or a
    new reference replica). [deadline] bounds the destination round
    trips. Returns (rows copied, catch-up records). *)
val copy_shard_to :
  State.t ->
  Metadata.shard ->
  from_node:string ->
  to_node:string ->
  drop_source:bool ->
  ?deadline:float ->
  finish_metadata:(unit -> unit) ->
  unit ->
  int * int

(** Move one shard group (the shard and its co-located siblings). When
    [sched] is given — the rebalancer batching moves — the move also
    occupies virtual time proportional to the rows it shipped, so
    concurrent moves overlap on the clock. *)
val move_shard_group :
  ?sched:Sim.Sched.t -> State.t -> shard_id:int -> to_node:string -> move

(** Rebalance until the policy is satisfied; returns the moves performed.
    Each round plans up to [config.max_parallel_moves] non-conflicting
    group moves against a virtually updated cost table and executes the
    batch as concurrent {!Sim.Sched} fibers ([Custom] policies plan one
    move at a time — their cost is an opaque per-node aggregate). *)
val rebalance : ?policy:policy -> State.t -> move list

(** Self-healing maintenance pass: repair every Inactive placement whose
    node is reachable; skips the ones that are blocked or sourceless.
    Returns the number of placements repaired. *)
val repair_inactive : State.t -> int

(** Shards per node (for tests and the rebalance report). *)
val distribution : State.t -> (string * int) list
