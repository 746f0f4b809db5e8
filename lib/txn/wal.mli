(** Logical write-ahead log.

    Every data-modifying operation appends a record before the change is
    considered durable; a transaction that wrote nothing leaves no record
    (see {!Manager.log}). The log supports the two capabilities the paper
    relies on (§3.7.2, §3.9): prepared-transaction state that survives a
    restart, and consistent restore points across a cluster. Replay is
    performed by the engine's recovery routine. *)

type lsn = int

type record =
  | Begin of int  (** xid *)
  | Insert of { xid : int; table : string; tid : int; row : Datum.t array }
  | Update of {
      xid : int;
      table : string;
      old_tid : int;
      new_tid : int;
      row : Datum.t array;
    }
  | Delete of { xid : int; table : string; tid : int }
  | Commit of int
  | Abort of int
  | Prepare of { xid : int; gid : string }
  | Commit_prepared of { xid : int; gid : string }
  | Rollback_prepared of { xid : int; gid : string }
  | Commit_ts of { xid : int; ts : Hlc.timestamp }
      (** HLC commit timestamp, appended right after the commit record;
          distributed snapshot visibility is rebuilt from these *)
  | Truncate of string
      (** table name: replay empties the table of that name. TRUNCATE and
          DROP TABLE of a heap table log it as-is, since neither is
          MVCC *)
  | Restore_point of string
  | Xid_floor of int
      (** no xid at or above this one has been issued; logged once per
          1,024 xids so numbering never reissues an xid after a crash *)

type t

val create : unit -> t

(** [append t record] appends and returns the record's LSN. *)
val append : t -> record -> lsn

val current_lsn : t -> lsn

(** Records in LSN order, optionally from [from] (inclusive) up to [upto]
    (exclusive). Used by recovery replay and by the logical-replication
    simulation of the shard rebalancer. *)
val records : ?from:lsn -> ?upto:lsn -> t -> (lsn * record) list

(** [find_restore_point t name] is the LSN of the restore point record. *)
val find_restore_point : t -> string -> lsn option

val size : t -> int
