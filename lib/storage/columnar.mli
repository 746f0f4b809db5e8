(** Columnar storage (the [columnar] access method of Citus).

    Append-only stripes of a fixed row count hold each column contiguously
    with per-column min/max metadata, enabling two effects the data
    warehousing pattern depends on (§2.4): scans read only the projected
    columns (fewer logical pages), and stripes whose min/max cannot satisfy
    a predicate are skipped entirely.

    Stripes are visible when their writing transaction is visible — the
    update/delete-free MVCC model of real Citus columnar. *)

type t

val create :
  name:string -> ncols:int -> ?stripe_rows:int -> ?values_per_page:int ->
  unit -> t
(** [values_per_page] defaults to 1024: column values pack densely and
    compress, so one logical page holds far more values than a heap page
    holds rows. *)


(** Append rows written by [xid] (grouped into stripes internally). *)
val append : t -> xid:int -> Datum.t array list -> unit

val stripe_count : t -> int

(** [scan t ~columns ~f] calls [f] for each visible row with a full-width
    row in which only [columns] are populated (others [Null]).
    [stripe_predicate ~mins ~maxs] may rule out a whole stripe from its
    per-column min/max (arrays indexed by column; [Null] when the stripe
    has no non-null value for that column). Page accounting charges
    [rows/values_per_page] logical pages per (stripe, projected column). *)
val scan :
  ?pool:Buffer_pool.t ->
  ?stripe_predicate:(mins:Datum.t array -> maxs:Datum.t array -> bool) ->
  t ->
  status:(int -> Txn.Manager.status) ->
  snapshot:Txn.Snapshot.t ->
  my_xid:int option ->
  columns:int list ->
  f:(Datum.t array -> unit) ->
  unit

(** Logical pages a full scan of [columns] would touch; the planner's cost
    input. *)
val pages_for_columns : t -> columns:int list -> int

(** Remove all stripes (TRUNCATE). *)
val clear : t -> unit
