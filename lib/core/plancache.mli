(** The distributed plan cache: stop re-planning the OLTP hot path.

    Citus' production OLTP workloads are dominated by statements whose
    shape never changes — only the distribution value does. Re-running
    the tiered planner (table discovery, co-location checks, shard
    pruning, per-shard rewrite) on every statement is pure overhead.
    This cache memoizes, per {e query shape} (the normalized AST with
    parameters unbound, keyed by its deparse — an EXECUTE's stored
    shape, or ad-hoc SQL with its literals lifted to [$k]), the
    planner-tier decision and a pruned-shard skeleton: one pre-rewritten
    statement per shard group. Only the bind-time steps remain on the
    hot path: hash the routing value to a group index, bind that
    group's statement, and pick a fresh placement for it.

    {b Invalidation is correctness-critical.} Every entry records
    {!Metadata.version} at build time; {!find} discards an entry whose
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

type entry = {
  e_key : string;  (** normalized shape text (deparse, params unbound) *)
  e_shape : Planner.shape;
  e_version : int;  (** {!Metadata.version} when the skeleton was built *)
  e_groups : (int * Sqlfront.Ast.statement) list;
      (** group index -> the shape rewritten to that group's shard
          names, params unbound *)
  mutable e_tick : int;  (** LRU recency stamp *)
}

(** Per-shape call accounting for [citus_stat_statements()]; kept
    separately from {!entry} so eviction does not erase history. *)
type stat = {
  st_fingerprint : string;  (** stable 8-hex shape id *)
  mutable st_tier : string;
      (** planner tier slug once cached; ["-"] until first build *)
  mutable st_calls : int;
  mutable st_hits : int;
  mutable st_builds : int;  (** cache fills: initial plans + revalidations *)
  mutable st_bypass : int;  (** calls re-planned (uncacheable or cache off) *)
}

type t

val create : unit -> t

(** Stable 8-hex fingerprint of a shape key (deterministic across runs). *)
val fingerprint : string -> string

(** Shapes currently cached (the [plancache.entries] gauge). *)
val size : t -> int

type lookup =
  | Hit of entry  (** valid skeleton; LRU recency bumped *)
  | Stale  (** entry existed but its metadata version moved: removed *)
  | Miss

val find : t -> key:string -> version:int -> lookup

(** Insert under the LRU bound; evicts least-recently-used entries past
    [max_size] and returns how many were dropped. [max_size <= 0] stores
    nothing. *)
val store : t -> max_size:int -> entry -> int

(** The (created-on-demand) statistics record of a shape. *)
val stat : t -> key:string -> stat

(** All shape statistics, sorted by shape text — the deterministic row
    order of [citus_stat_statements()]. *)
val stats : t -> (string * stat) list
