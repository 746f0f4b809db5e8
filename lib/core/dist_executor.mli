(** Executes distributed plans (§3.6).

    Single-task plans (fast path / router) delegate entirely to one worker.
    Multi-shard SELECTs run their tasks through the adaptive executor and
    run the merge ("master") query straight over the collected rows, a
    tuplestore with no catalog entry — the CustomScan + merge-step
    structure of Figure 5. A read leaves the coordinator's catalog, and
    so its kept plans, alone. *)

(** Result plus the adaptive executor's timing report. [?bound] is a
    plan-cache hit's worker-side statement and values: the plan's one
    task then carries its statement with [$k] unbound and goes out as a
    bound execute (see {!Adaptive_executor.execute}). *)
val execute :
  ?bound:Exec.bound ->
  State.t ->
  Engine.Instance.session ->
  Plan.t ->
  Engine.Instance.result * Adaptive_executor.report

(** [insert_rows st session ~table rows] writes [rows] into the Citus
    table [table] through {!Planner.plan}'s INSERT routing and {!execute},
    inside [session]'s transaction; returns the rows inserted. [columns]
    names the row positions (default: every column in table order). No
    rows, no statement. *)
val insert_rows :
  State.t ->
  Engine.Instance.session ->
  table:string ->
  ?columns:string list ->
  ?on_conflict_do_nothing:bool ->
  Datum.t array list ->
  int
