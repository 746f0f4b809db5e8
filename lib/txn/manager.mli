(** Per-node transaction manager: xid assignment, commit log, snapshots,
    locks, WAL, and prepared (2PC) transactions.

    One [Manager.t] exists per database node. The Citus coordinator drives
    worker-side transactions through sessions that ultimately call into
    this module on each node. *)

type xid = int

type status = In_progress | Committed | Aborted

type t

val create : unit -> t

val wal : t -> Wal.t

val locks : t -> Lock.t

(** Start a transaction: assigns an xid, which owns the transaction's
    locks and reads [In_progress], but logs nothing of its own; once per
    1,024 xids a [Wal.Xid_floor] is logged so that numbering after a
    crash resumes above every xid issued before it. *)
val begin_txn : t -> xid

(** [note_write t xid] marks a running transaction as having written:
    its first call logs [Begin], and from then on its commit or abort is
    logged. For writes that log no record of their own (columnar
    appends); raises [Invalid_argument] if [xid] is not running. *)
val note_write : t -> xid -> unit

(** [log t record] appends [record] to the WAL, first marking the xid it
    carries (Insert, Update, Delete) as having written. Every xid-bearing
    record is appended through here, never through [Wal.append]. *)
val log : t -> Wal.record -> unit

(** Snapshot for a running transaction (or a standalone read). *)
val take_snapshot : t -> Snapshot.t

val status : t -> xid -> status

val is_active : t -> xid -> bool

(** Commit/abort: flip the clog entry and release locks; if the xid
    wrote, first log its Commit (then its HLC stamp) or Abort record. A
    transaction that wrote nothing logs nothing and gets no stamp, so
    after a crash it reads as [Aborted]. Raise [Invalid_argument] if the
    xid is not in progress. [?ts] stamps the commit at a distributed
    commit timestamp, as {!commit_prepared} does. *)
val commit : ?ts:Hlc.timestamp -> t -> xid -> unit

(** Whether a running transaction has written (see {!note_write}). *)
val wrote : t -> xid -> bool

val abort : t -> xid -> unit

(** {2 Two-phase commit primitives (PREPARE TRANSACTION et al.)} *)

(** [prepare t xid ~gid] detaches the running transaction into the prepared
    state: its locks remain held, its tuples stay in-progress, and the
    prepared record is WAL-logged so it survives restart. *)
val prepare : t -> xid -> gid:string -> unit

(** [commit_prepared ?ts t ~gid] commits a prepared transaction. With
    [?ts] — the coordinator-assigned distributed commit timestamp — the
    commit is stamped at exactly that time on every participant (the
    timestamp is also merged into this node's clock so it can never
    re-issue an equal or earlier stamp); without it, a local stamp is
    drawn. *)
val commit_prepared : ?ts:Hlc.timestamp -> t -> gid:string -> unit

val rollback_prepared : t -> gid:string -> unit

(** Pending prepared transactions as (gid, xid) pairs. The Citus recovery
    daemon compares these against its commit records (§3.7.2). *)
val prepared_transactions : t -> (string * xid) list

(** Rebuild clog / running / prepared / locks from the WAL after a node
    crash. Transactions that were running at crash time, or ended without
    writing, disappear (their xids read as [Aborted]); prepared
    transactions survive as [In_progress] and stay listed in
    [prepared_transactions]. New xids start at the last logged floor.
    The WAL is kept as-is. *)
val crash_recover : t -> unit

exception No_such_prepared of string

(** Oldest xid that any snapshot could still need, for vacuum. *)
val oldest_active_xid : t -> xid

(** {2 Hybrid-logical-clock commit timestamps (distributed snapshots)}

    Every commit of a transaction that wrote (and every prepared one) is
    stamped with this node's {!Hlc.t} and the stamp is WAL-logged
    ([Wal.Commit_ts]), so timestamp visibility survives a crash. The default clock is purely logical; the cluster layer
    installs one whose physical component reads the simulated (possibly
    skewed) node clock. *)

val set_hlc : t -> Hlc.t -> unit

val hlc : t -> Hlc.t

(** HLC commit timestamp of a committed xid ([None] when unknown — an
    aborted or still-running transaction, or one that wrote nothing). *)
val commit_ts_of : t -> xid -> Hlc.timestamp option

exception In_doubt of { gid : string; xid : xid }

(** [status_at t ~ts xid] is transaction status as of snapshot [ts]:
    commits stamped after [ts] read as [In_progress] (invisible), and an
    in-doubt xid — prepared, and able to commit at or before [ts] —
    raises {!In_doubt}: the caller resolves the 2PC outcome and retries
    rather than guess. A prepared xid whose PREPARE stamp already exceeds
    [ts] is not in doubt: its commit timestamp is provably later. *)
val status_at : t -> ts:Hlc.timestamp -> xid -> status

(** Latest-visibility status that refuses to skip prepared transactions:
    raises {!In_doubt} where {!status} would report [In_progress] for a
    prepared xid. Backs read-your-writes mode — the session's own
    distributed commit may still be in its in-doubt window on a
    participant, and skipping it would un-happen an acknowledged write. *)
val status_resolving : t -> xid -> status
