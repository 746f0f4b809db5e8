(** The distributed plan cache: stop re-planning the OLTP hot path.

    Citus' production OLTP workloads are dominated by statements whose
    shape never changes — only the distribution value does. Re-running
    the tiered planner (table discovery, co-location checks, shard
    pruning, per-shard rewrite) on every statement is pure overhead.
    This cache memoizes, per {e query shape} (the normalized AST with
    parameters unbound, keyed by its deparse — an EXECUTE's stored
    shape, or ad-hoc SQL with its literals lifted to [$k]), the
    planner-tier decision and a pruned-shard skeleton: one rewritten
    statement per shard group, made when the group is first dispatched.
    Only the bind-time steps remain on the hot path: hash the routing
    value to a group index, pick a fresh placement for it, and send that
    group's statement as a bound execute of a worker-side prepared
    statement.

    {b Worker-side statements.} Each entry has a unique id. The first
    dispatch of a group rewrites and deparses its statement once and
    names it [citus_s<id>_<group>] ({!dispatch}); a connection parses it
    on the node with the first bound execute it carries, later hits send
    only the name and the values. An entry that leaves the cache —
    evicted, found stale, or replaced — retires its statements, and
    every connection that prepared them closes them with its next bound
    execute. Worker registries are therefore bounded by
    [plan_cache_size] × groups, and a statement of a stale entry never
    runs again: the rebuilt entry has a fresh id, hence fresh names.

    {b Invalidation is correctness-critical.} Every entry records
    {!Metadata.version} at build time; {!lookup} discards an entry whose
    version no longer matches ([Stale]), so DDL, shard moves,
    rebalancing, replication-factor changes and tenant isolation — all
    of which bump the version — force a re-plan. Placements are {e
    never} cached: the executing node is selected at bind time, so a
    placement flip (repair, failover) between statements is picked up
    even without a rebuild. A stale skeleton must revalidate, never
    execute.

    The cache is bounded LRU ([citus.plan_cache_size], default 128;
    [0] disables caching entirely). Per-shape call statistics survive
    eviction and feed [citus_stat_statements()].

    This module is the pure data structure: no metrics, no planning.
    Shape analysis is {!Planner.analyze_shape}; skeleton construction,
    cached dispatch and the [plancache.*] metric emission live in
    [Api]. *)

(** What a shard group's first dispatch memoizes. *)
type dispatch = {
  d_stmt : Sqlfront.Ast.statement;
      (** the shape rewritten to the group's shard names, params unbound *)
  d_wire : Cluster.Connection.stmt;  (** its worker-side statement *)
}

type group = {
  g_index : int;  (** shard-group index ([-1] for a local read) *)
  mutable g_dispatch : dispatch option;  (** [None] until first dispatch *)
}

type entry = {
  e_id : int;  (** unique per cache: names the worker-side statements *)
  e_key : string;  (** normalized shape text (deparse, params unbound) *)
  e_stmt : Sqlfront.Ast.statement;  (** the shape statement, params unbound *)
  e_shape : Planner.shape;
  e_version : int;  (** {!Metadata.version} when the skeleton was built *)
  e_params : int list;
      (** the shape's [$k], in {!Sqlfront.Ast.params} order: a bind
          checks them without binding the statement *)
  e_groups : group list;  (** the shard groups the shape can route to *)
  mutable e_tick : int;  (** LRU recency stamp *)
}

(** Per-shape call accounting for [citus_stat_statements()]; it
    outlives the shape's {!entry}, so eviction does not erase history. *)
type stat = {
  st_fingerprint : string;  (** stable 8-hex shape id *)
  st_seconds : Obs.Metrics.key;
      (** the shape's [plancache.shape_seconds.<fingerprint>] histogram,
          interned once with the stat *)
  mutable st_tier : string;
      (** planner tier slug once cached; ["-"] until first build *)
  mutable st_calls : int;
  mutable st_hits : int;
  mutable st_builds : int;  (** cache fills: initial plans + revalidations *)
  mutable st_bypass : int;  (** calls re-planned (uncacheable or cache off) *)
}

(** One shape's record, keyed by its text: its statistics, which
    outlive eviction, and its cached skeleton while it has one. A
    statement hashes its key once, for {!slot}. *)
type slot = private { stat : stat; mutable cached : entry option }

type t

val create : unit -> t

(** Shapes currently cached (the [plancache.entries] gauge). *)
val size : t -> int

(** The key of an ad-hoc statement's lifted shape: its deparse, memoized
    per shape (hashed and compared structurally) so a repeated shape is
    not deparsed again. The memo holds at most [max_size] shapes and is
    off at [max_size <= 0]. *)
val key_of_shape : t -> max_size:int -> Sqlfront.Ast.statement -> string

(** [make_entry t ~key ~version ~stmt ~shape groups] builds an entry
    with a fresh id for the shape statement [stmt], spanning the shard
    groups [groups]. *)
val make_entry :
  t ->
  key:string ->
  version:int ->
  stmt:Sqlfront.Ast.statement ->
  shape:Planner.shape ->
  int list ->
  entry

(** [dispatch t entry g ~rewrite] is group [g]'s statement and
    worker-side statement: on first use [rewrite] turns the entry's [e_stmt]
    into the group's shard statement, which is deparsed once and named
    [citus_s<e_id>_<g>]; later calls return the memo. [None] when the
    skeleton has no group [g]. *)
val dispatch :
  t ->
  entry ->
  int ->
  rewrite:(Sqlfront.Ast.statement -> Sqlfront.Ast.statement) ->
  dispatch option

type lookup =
  | Hit of entry  (** valid skeleton; LRU recency bumped *)
  | Stale
      (** entry existed but its metadata version moved: removed, and its
          worker-side statements retired *)
  | Miss

(** The (created-on-demand) slot of a shape key. *)
val slot : t -> key:string -> slot

(** The slot's skeleton, checked against the catalog [version]. *)
val lookup : t -> slot -> version:int -> lookup

(** {!lookup} of the slot of [key], if it has one; creates none. *)
val find : t -> key:string -> version:int -> lookup

(** Cache [entry] in [slot] under the LRU bound; evicts
    least-recently-used entries past [max_size] (retiring their
    worker-side statements) and returns how many were dropped.
    [max_size <= 0] stores nothing. *)
val store : t -> max_size:int -> slot -> entry -> int

(** All shape statistics, sorted by shape text — the deterministic row
    order of [citus_stat_statements()]. *)
val stats : t -> (string * stat) list
