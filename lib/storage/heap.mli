(** MVCC heap storage, PostgreSQL-style.

    Tuples carry [xmin]/[xmax] transaction ids; visibility is decided
    against a snapshot plus the commit log, so aborted work disappears
    without physical undo. Updates insert a new version and mark the old
    one deleted; VACUUM reclaims versions no active snapshot can see and
    puts their slots on a freelist (this matters for the high-performance
    CRUD workload, §2.3: auto-vacuum keeping up is part of the model).

    Tuples are grouped into fixed-size logical pages; scans and fetches
    report page touches to an optional {!Buffer_pool.t} for I/O
    accounting. *)

type xid = int

type t

(** [create ~name ~rows_per_page ()] creates an empty heap. *)
val create : name:string -> ?rows_per_page:int -> unit -> t


(** Insert a new tuple version owned by [xid]; returns its tuple id. *)
val insert : t -> xid:xid -> Datum.t array -> int

(** Mark tuple [tid] deleted by [xid]. Any previous aborted deleter is
    overwritten. Returns [false] if the slot is empty/reclaimed. *)
val delete : t -> xid:xid -> tid:int -> bool

(** [insert_at t ~tid ~xid row] places a version at exactly slot [tid],
    growing the heap as needed (WAL replay must reproduce tids because
    index entries and later WAL records reference them). *)
val insert_at : t -> tid:int -> xid:xid -> Datum.t array -> unit

(** Visit every physically stored version, visible or not, as
    [f tid (xmin, xmax) row]. Every index build reads the heap this way
    (CREATE INDEX and the rebuild after crash recovery), since an index
    holds an entry for each version. *)
val scan_physical : t -> f:(int -> xid * xid -> Datum.t array -> unit) -> unit

(** Raw tuple header access (for write-conflict checks and the vacuum /
    rebalancer machinery). *)
val header : t -> tid:int -> (xid * xid) option
(** (xmin, xmax); xmax = 0 means never deleted. *)

(** [fetch t ~tid ...] returns the tuple data if the version is visible.
    Touches the containing page in [pool] if given. *)
val fetch :
  ?pool:Buffer_pool.t ->
  t ->
  tid:int ->
  status:(xid -> Txn.Manager.status) ->
  snapshot:Txn.Snapshot.t ->
  my_xid:xid option ->
  Datum.t array option

(** Sequential scan over visible tuples in tid order. Each page is touched
    once in [pool]. *)
val scan :
  ?pool:Buffer_pool.t ->
  t ->
  status:(xid -> Txn.Manager.status) ->
  snapshot:Txn.Snapshot.t ->
  my_xid:xid option ->
  f:(int -> Datum.t array -> unit) ->
  unit

(** Reclaim dead versions: those whose xmin aborted, or whose xmax
    committed before [oldest] (no snapshot can still see them). Returns
    the reclaimed tids, ascending; their slots go on the freelist, so
    callers drop the index entries of these tids before the next insert. *)
val vacuum : t -> oldest:xid -> status:(xid -> Txn.Manager.status) -> int array

val live_estimate : t -> int
(** Slots currently holding a version (live or not-yet-vacuumed dead). *)

val dead_estimate : t -> int

val page_count : t -> int

val rows_per_page : t -> int

(** Remove all rows (TRUNCATE). *)
val clear : t -> unit

(** Rewrite every stored row in place (ALTER TABLE ADD COLUMN). *)
val transform : t -> (Datum.t array -> Datum.t array) -> unit
