(** Distributed transactions (§3.7).

    Transactions touching one worker are delegated to it (plain COMMIT),
    unless the coordinating node wrote too (local execution). Otherwise
    the remote connections run two-phase commit: at pre-commit, every
    participating connection gets [PREPARE TRANSACTION
    'citus_<node-name>_<xid>_<seq>'] — the gid namespace of whichever
    node is coordinating (MX: any metadata-synced node can) — and a
    commit record is inserted into that node's local
    [pg_dist_transaction] table inside the coordinator's own transaction
    — so the records become durable exactly when the coordinator commit
    does, at the participants' commit timestamp. After local commit,
    [COMMIT PREPARED] is sent on a best-effort basis; {!recover} (run
    from the maintenance daemon on every node) finishes the job after
    failures by comparing each node's pending prepared transactions
    against the {e origin} coordinator's commit records — scanning every
    namespace, not just its own. *)

val commit_records_table : string

(** Create [pg_dist_transaction] on the local node if missing. *)
val ensure_commit_records_table : State.t -> unit

(** Transaction callbacks to register on the local instance. *)
val pre_commit : State.t -> Engine.Instance.session -> unit

val post_commit : State.t -> Engine.Instance.session -> unit

val on_abort : State.t -> Engine.Instance.session -> unit

(** 2PC recovery pass: poll every reachable node's prepared
    transactions, in {e every} gid namespace, and resolve each one by
    the rule {!resolve_in_doubt} also applies. A gid commits if and
    only if its origin coordinator (the node named in the gid) holds a
    commit record for it. Such a gid gets [COMMIT PREPARED] at the
    recorded HLC timestamp, and its record is deleted. With no record
    and the origin transaction ended, it gets [ROLLBACK PREPARED].
    While the origin transaction is still active, or the origin is
    crashed or unreachable, the gid stays in doubt until a later pass.
    Returns (committed, rolled back) counts. *)
val recover : State.t -> int * int

(** Number of commit records currently stored (tests/monitoring). *)
val commit_record_count : State.t -> int

(** [resolve_in_doubt t ?conn ~gid ()] resolves one in-doubt prepared
    transaction met by a snapshot reader on [conn]'s node (without
    [conn]: on this node), by the decision {!recover} makes. A commit
    record on the gid's origin coordinator (any namespace) means [COMMIT
    PREPARED] at the recorded HLC timestamp; no record and an ended
    origin transaction, [ROLLBACK PREPARED]; either returns [`Resolved].
    While the 2PC is in flight it is [`Pending] (back off and retry);
    while the origin is down or cut off, [`Unreachable origin].
    Idempotent and best effort, like {!recover}, but it leaves the
    commit record for the maintenance daemon to collect. *)
val resolve_in_doubt :
  State.t ->
  ?conn:Cluster.Connection.t ->
  gid:string ->
  unit ->
  [ `Resolved | `Pending | `Unreachable of string ]
