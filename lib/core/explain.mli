(** EXPLAIN-style description of distributed plans.

    Renders which planner tier handled a statement, the task fan-out with
    target nodes and shards, and the merge step — the textual equivalent of
    Figure 4's planning examples. Used by tests to pin planner behavior and
    by users to understand routing. *)

(** [explain state sql] plans (without executing) and renders the
    distributed plan. Falls back to describing join-order handling or
    local execution. *)
val explain : State.t -> string -> string

(** [explain_analyze state sql] executes the query on a fresh session
    with span tracing forced on and renders the resulting span tree —
    planner tier, per-fragment placement and virtual-clock timings.
    The sink's previous enabled state is restored afterwards, even if
    execution raises. Backs [citus_explain(query, 'analyze')]. *)
val explain_analyze : State.t -> string -> string
