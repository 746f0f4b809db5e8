(** Distributed INSERT..SELECT — the three strategies of §3.8.

    + {b co-located}: source and destination share a colocation group and
      the SELECT maps a source distribution column onto the destination's;
      each shard group runs [INSERT INTO dest_shard SELECT ... FROM
      src_shards] locally, fully in parallel;
    + {b re-partition}: the SELECT is pushdownable but rows land on other
      shards; the task results are inserted into the destination;
    + {b pull}: the SELECT needs a coordinator merge step (or the
      destination is a reference table); it runs as a distributed SELECT
      and its result is inserted into the destination.

    Re-partition and pull insert their rows with
    {!Dist_executor.insert_rows}: one [INSERT .. VALUES] through the
    planner's INSERT routing, replicated like any client INSERT. *)

(** Execute [INSERT INTO table (columns) SELECT ...]. *)
val execute :
  State.t ->
  Engine.Instance.session ->
  table:string ->
  columns:string list option ->
  select:Sqlfront.Ast.select ->
  on_conflict_do_nothing:bool ->
  Engine.Instance.result
