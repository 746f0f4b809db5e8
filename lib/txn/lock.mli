(** Lock manager: table-level and row-level locks with a wait-for graph.

    Mirrors the subset of PostgreSQL's lock machinery that Citus relies on:
    writes take row locks, DDL takes [Access_exclusive] table locks, and the
    wait-for graph edges feed both local deadlock detection and the
    distributed deadlock detector of the Citus layer (§3.7.3).

    There are no OS threads in this system: [acquire] never blocks. A
    conflicting request returns [Blocked holders]; the caller records itself
    as waiting (which creates the wait-for edges) and retries after other
    transactions release. *)

type xid = int

type target =
  | Table of string
  | Row of string * int  (** table name, tuple id *)

type mode =
  | Access_share  (** plain reads; only conflicts with [Access_exclusive] *)
  | Row_exclusive  (** DML on a table; conflicts with [Access_exclusive] *)
  | Access_exclusive  (** DDL; conflicts with everything *)
  | Row_lock  (** exclusive lock on one row; conflicts with itself *)

type t

type outcome =
  | Granted
  | Blocked of xid list  (** current conflicting holders *)

val create : unit -> t

(** [acquire t ~owner target mode] grants immediately or reports conflict.
    Re-acquiring a held lock is a no-op ([Granted]). While blocked, the
    request is remembered as a wait (for the wait-for graph) until the next
    [acquire] by [owner] succeeds or [cancel_wait] is called. *)
val acquire : t -> owner:xid -> target -> mode -> outcome

(** Forget a pending blocked request (used when the transaction aborts
    instead of retrying). *)
val cancel_wait : t -> owner:xid -> unit

(** Release every lock held by [owner] and any pending wait. *)
val release_all : t -> owner:xid -> unit

(** Drop all held locks and pending waits (node crash: lock state is
    in-memory only, so it does not survive a restart; prepared
    transactions reacquire theirs during WAL replay). *)
val reset : t -> unit

(** The holders of [target], newest grant first. *)
val holders : t -> target -> (xid * mode) list

(** All current wait-for edges (waiter, holder), one per conflicting
    holder. This is what the Citus deadlock detector polls from workers. *)
val wait_edges : t -> (xid * xid) list

(** Locks currently held by a transaction (used by PREPARE TRANSACTION to
    carry locks over into the prepared state). *)
val held_by : t -> xid -> (target * mode) list

(** [detect_deadlock t] looks for a cycle in the wait-for graph and returns
    the members of one cycle if present (local, single-node detection). *)
val detect_deadlock : t -> xid list option
