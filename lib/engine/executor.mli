(** Single-node query executor.

    Executes parsed statements against the catalog with full MVCC
    semantics. The execution model is "semantic": the SELECT pipeline
    (FROM → WHERE → GROUP/aggregate → HAVING → DISTINCT → ORDER →
    LIMIT/OFFSET → project) is compiled from the AST into closures, with
    an access-path decision per base table (primary-key / secondary B-tree
    lookups, GIN trigram candidate + recheck, columnar projection scans,
    otherwise sequential scan).

    There are no OS threads. When a write conflicts with a lock held by
    another transaction, the statement raises {!Would_block} with the
    holders; the session layer surfaces that to the caller, who retries
    after the holder finishes (or aborts). This is what makes lock waits
    and deadlocks deterministic and testable. *)

type ctx = {
  catalog : Catalog.t;
  mgr : Txn.Manager.t;
  pool : Storage.Buffer_pool.t;
  meter : Meter.t;
  snapshot : Txn.Snapshot.t;
  xid : int option;  (** current transaction for writes / own-write reads *)
  vis : (int -> Txn.Manager.status) option;
      (** visibility override for distributed snapshot reads: replaces
          [Txn.Manager.status] in tuple-visibility checks (it may raise
          [Txn.Manager.In_doubt]); [None] = plain latest MVCC *)
  now : float;  (** what [now()] reads *)
  rng : Random.State.t;  (** what [random()] draws from *)
  params : Datum.t array;  (** [$k] is element [k - 1] *)
}
(** One execution. A plan runs once per [ctx], so build a fresh one for
    every execution (an uncorrelated subquery's rows are kept per
    [ctx]). *)

type result = {
  columns : string list;
  rows : Datum.t array list;
  affected : int;
  tag : string;
}

exception Exec_error of string

exception Would_block of int list  (** xids holding conflicting locks *)

(** {2 Plans}

    A data statement (SELECT, INSERT, UPDATE, DELETE) is compiled into a
    plan once and run per execution: tables, schemas, access paths and
    expressions are settled when the plan is built, and each [$k] reads
    the execution's [params]. An equality on a [$k] picks its B-tree
    when the plan is built (a generic plan); an execution whose value is
    NULL chooses again. A statement whose [$k] a generic plan cannot
    settle — a possible ordinal in GROUP BY or ORDER BY, a grouped
    select's output, a LIKE pattern — is bound and planned at a run
    inside the same plan, which keeps that plan for runs with the same
    values. Running a plan charges the meter exactly what running its
    bound statement as text would. *)

type plan

(** For one instance: kept plans built (a first run on this instance or
    a rebuild), runs of kept plans, runs that bound and planned their
    statement (one no generic plan serves, with other values than its
    last run's), and plans found built at an older catalog version. *)
type plan_stats =
  { mutable builds : int; mutable runs : int; mutable planned_runs : int; mutable invalidations : int }

val plan_stats : unit -> plan_stats

(** [prepare catalog stmt] plans [stmt] against [catalog] at its current
    {!Catalog.version}, counting in [?stats] the runs that plan. Raises
    {!Exec_error} for an unknown table and for a statement that is not a
    data statement. *)
val prepare : ?stats:plan_stats -> Catalog.t -> Sqlfront.Ast.statement -> plan

val run : plan -> ctx -> result

(** A statement kept with at most one plan per catalog: the plan of a
    prepared statement, or of a cached task's worker-side statement,
    which a reference-table read may run locally on several nodes. *)
type kept

val keep : Sqlfront.Ast.statement -> kept

(** [first_unbound k n] is the first [$k] of the statement (in
    {!Sqlfront.Ast.params} order) that [n] values leave unbound. *)
val first_unbound : kept -> int -> int option

(** [run_kept stats k ctx] runs [k]'s plan for [ctx.catalog], first
    building it if [k] has none for that catalog, or if it was built at
    an older version of it. *)
val run_kept : plan_stats -> kept -> ctx -> result

(** {2 One-off execution: plan, then run once} *)

(** The value of an expression that references no column. *)
val eval_const : ctx -> Sqlfront.Ast.expr -> Datum.t

(** Column names and rows of a SELECT. [?relation:(name, columns, rows)]
    gives one relation as rows held in memory, a tuplestore: in the
    SELECT's FROM items (joins and FROM-clause subselects included, not
    expression subqueries) [name] resolves to [columns] and [rows] before
    the catalog is consulted, and reading it touches no page and takes
    no lock. *)
val run_select :
  ?relation:string * string list * Datum.t array list ->
  ctx ->
  Sqlfront.Ast.select ->
  string list * Datum.t array list

(** Row-returning DML; all return the number of affected rows and require
    [ctx.xid = Some _]. *)
val run_insert :
  ctx ->
  table:string ->
  columns:string list option ->
  source:Sqlfront.Ast.insert_source ->
  on_conflict_do_nothing:bool ->
  int

val run_update :
  ctx ->
  table:string ->
  sets:(string * Sqlfront.Ast.expr) list ->
  where:Sqlfront.Ast.expr option ->
  int

val run_delete : ctx -> table:string -> where:Sqlfront.Ast.expr option -> int

(** Insert pre-built rows (COPY and replication paths); applies defaults,
    casts, PK checks and index maintenance like a VALUES insert. *)
val insert_rows :
  ctx -> table:Catalog.table -> Datum.t array list -> on_conflict_do_nothing:bool -> int

(** A GROUP BY or ORDER BY item that is an ordinal ([GROUP BY 1]) or a
    projection alias, replaced by that projection's expression. *)
val substitute_refs : Sqlfront.Ast.projection list -> Sqlfront.Ast.expr -> Sqlfront.Ast.expr

(** {2 Index operations}

    Each matches on the index's kind once; callers loop over
    [table.indexes]. An index holds an entry for every physically stored
    version (CREATE INDEX, writes and the restart rebuild alike), a scan
    rechecks visibility against the heap, and vacuum removes entries by
    tid alone. *)

(** [index_inserter ctx table indexes] resolves each index's key once
    and returns the function that adds one version's entries to all of
    [indexes], charging one index update per B-tree entry and per GIN
    trigram. *)
val index_inserter :
  ctx -> Catalog.table -> Catalog.index list -> int -> Datum.t array -> unit

(** [index_bulk_delete meter pool dead idx] drops the reclaimed tids
    [dead] (ascending) from [idx], one index update per tid it held. *)
val index_bulk_delete :
  Meter.t -> Storage.Buffer_pool.t -> int array -> Catalog.index -> unit

(** The work an index defers to a maintenance tick: a GIN merges its
    pending list; a B-tree has none. *)
val index_cleanup : Storage.Buffer_pool.t -> Catalog.index -> unit

(** Drop every entry (TRUNCATE, recovery). *)
val index_clear : Catalog.index -> unit

(** Schema of a base table as the executor exposes it to expressions. *)
val table_schema : alias:string option -> Catalog.table -> Expr_eval.schema
