(** MVCC snapshots, as in PostgreSQL.

    A snapshot captures which transactions were in progress at the moment it
    was taken. Combined with the commit log it decides tuple visibility. *)

type xid = int

type t = {
  xmin : xid;  (** all xids below this are finished *)
  xmax : xid;  (** first xid not yet assigned when the snapshot was taken *)
  active : xid list;  (** xids in [xmin, xmax) that were still running *)
}

(** [sees t xid] is true when transaction [xid]'s effects are potentially
    visible to this snapshot (it finished before the snapshot was taken).
    The caller still has to check the commit log: an aborted transaction is
    "seen" here but its tuples are dead. *)
val sees : t -> xid -> bool


(** How a session resolves {e distributed} visibility, on top of the
    xid snapshot above (which always governs local concurrency):

    - [Latest]: plain local MVCC. Prepared (in-doubt) transactions read
      as invisible — a cross-node read can be torn.
    - [Resolving]: latest, but an in-doubt transaction blocks the read
      until its 2PC outcome is resolved ([Manager.status_resolving]).
      Gives read-your-writes across nodes.
    - [At ts]: visibility frozen at HLC timestamp [ts]
      ([Manager.status_at]): commits after [ts] are invisible, in-doubt
      transactions that might commit at or before [ts] block. One [ts]
      carried to every fragment of a multi-shard read yields a
      consistent distributed snapshot. *)
type read_mode = Latest | Resolving | At of Hlc.timestamp

val pp_read_mode : Format.formatter -> read_mode -> unit
