(** The tiered distributed query planners of §3.5.

    For each statement that references a Citus table, [plan] tries the
    planners from lowest to highest overhead:

    + {b fast path} — simple CRUD on one distributed table with an
      equality filter (or VALUES) on the distribution column;
    + {b router} — an arbitrarily complex query whose distributed tables
      are co-located and all filtered to the same distribution value, so
      the whole query can be rewritten to one set of co-located shards;
    + {b logical pushdown} — multi-shard SELECT whose join tree is fully
      pushdownable: per-shard-group tasks with decomposed aggregates plus
      a coordinator merge query;
    + parallel DML for multi-shard writes.

    Queries that need the logical join-order planner (non-co-located
    joins) raise {!Unsupported} here and are handled by {!Join_order}. *)

exception Unsupported of string

(** Citus tables referenced anywhere in a statement. *)
val citus_tables : Metadata.t -> Sqlfront.Ast.statement -> string list

(** [citus_tables meta stmt <> []], without building the list. *)
val names_citus_table : Metadata.t -> Sqlfront.Ast.statement -> bool

(** Which planner produced a plan (for tests and EXPLAIN-style output). *)
type tier = Tier_fast_path | Tier_router | Tier_pushdown | Tier_dml | Tier_reference

val tier_name : tier -> string

(** Metric/tag-safe identifier ([fast_path], [router], [pushdown],
    [dml], [reference]); the [planner.tier.<slug>] counter namespace
    also holds [join_order], counted by the {!Api} fallback. *)
val tier_slug : tier -> string

(** [plan meta ~local_name stmt] produces a distributed plan from the
    catalog alone: [*] projections expand from the tables' logical
    definitions ({!Metadata.table_def}). [local_name] is the node
    running the planner (reference-table reads route there). [catalog]
    is accepted and ignored ([bench/suite] still passes a node's
    catalog). [node_ok] steers placement choice for reads away from
    unhealthy nodes (circuit breaker open); the first active placement
    is used when every candidate fails the predicate. Raises {!Unsupported} when no tier applies.

    The fast-path and router tiers are whatever {!analyze_shape}
    accepts, routed by {!single_task}. Counting the tier and tracing the
    ["plan"] span is the caller's job ([Api]'s statement route). *)
val plan :
  ?node_ok:(string -> bool) ->
  ?catalog:Engine.Catalog.t ->
  Metadata.t ->
  local_name:string ->
  Sqlfront.Ast.statement ->
  Plan.t * tier

(** Plan a SELECT for pushdown execution: per-shard tasks and the merge.
    Raises {!Unsupported} if the select cannot be fully pushed down. *)
val plan_pushdown_select :
  ?node_ok:(string -> bool) ->
  Metadata.t ->
  Sqlfront.Ast.select ->
  Plan.task list * Plan.merge

(** True when the select's distributed tables are co-located and the query
    groups/joins on the distribution column so that INSERT..SELECT can run
    entirely co-located (strategy 1 of §3.8). *)
val select_is_colocated_with :
  Metadata.t -> dest:string -> dest_dist_col_position:int option ->
  Sqlfront.Ast.select -> bool

(** Build the per-shard task select and merge query for a select, without
    co-location validation — {!Join_order} reuses this after it has
    re-partitioned or broadcast the non-co-located relations. *)
val pushdown_parts :
  Metadata.t -> Sqlfront.Ast.select -> Sqlfront.Ast.select * Plan.merge

(** The select's top-level conjuncts: its WHERE clause, every join
    condition in its FROM items, and those of FROM-clause subselects. *)
val conjuncts_of_select : Sqlfront.Ast.select -> Sqlfront.Ast.expr list

(** The relation name merge queries read; {!Dist_executor} resolves it
    to the collected rows. *)
val intermediate_relation : string

(** The one mapping from a logical table to its shard name: a reference
    table goes to its single shard, a distributed table to its shard of
    group [group_index] (unchanged without one), any other name is kept. *)
val shard_table_name : Metadata.t -> ?group_index:int -> string -> string

(** Rewrite every Citus table name to the shard of group [group_index]
    ({!shard_table_name}). *)
val rewrite_to_group :
  Metadata.t -> group_index:int -> Sqlfront.Ast.statement -> Sqlfront.Ast.statement

(** {2 Single-task routing}

    [analyze_shape] is the one classifier of single-task statements,
    for {!plan} and for the distributed plan cache alike. A statement
    qualifies when it is single-task for {e any} value of its routing
    key, so the same answer holds for a concrete statement and for its
    shape with parameters unbound: a SELECT over reference and local
    tables only (served on the planning node), a single-row INSERT whose
    distribution-column position holds [$k] / a non-null constant, or a
    SELECT / UPDATE / DELETE over co-located Citus tables whose every
    distributed table is filtered by equality on its distribution
    column. Each table keeps its own key ([items.key = $1 AND tags.key =
    $2]): whether their values meet in one shard group is checked at
    bind time, as Citus defers shard pruning to execution. The cache
    stores one pre-rewritten statement per group of {!shape_groups}; at
    bind time {!single_task} hashes the values to a group and picks the
    placement fresh. Everything else is planned per statement —
    conservatism costs latency, never correctness. *)

type dist_key =
  | Key_param of int  (** routing value is bound to [$k] *)
  | Key_const of Datum.t  (** routing value is baked into the statement *)

type shape =
  | Local_read  (** reference/local-only SELECT: runs where it was planned *)
  | Single_group of {
      anchor : string;  (** distributed table whose shards drive pruning *)
      tier : tier;  (** [Tier_fast_path] or [Tier_router] *)
      keys : dist_key list;
          (** each distributed table's routing key, the anchor's
              first *)
    }

val shape_tier : shape -> tier

val analyze_shape : Metadata.t -> Sqlfront.Ast.statement -> shape option

(** Shard-group indexes a shape can route to ([-1] for [Local_read]). *)
val shape_groups : Metadata.t -> shape -> int list

(** Value → shard → placement → task: [bind k] supplies the value of a
    [Key_param k]; every key's value hashes to a shard group of the
    anchor; the placement is chosen fresh; [stmt_for group] supplies the
    statement rewritten to that group. [Local_read] runs on
    [local_name]. [None] when the keys' values hash to different groups:
    the bound statement is then not single-task, and is planned as
    {!plan} plans it. *)
val single_task :
  ?node_ok:(string -> bool) ->
  Metadata.t ->
  local_name:string ->
  bind:(int -> Datum.t) ->
  stmt_for:(int -> Sqlfront.Ast.statement) ->
  shape ->
  Plan.t option
