(** Distributed INSERT..SELECT — two of the three strategies of §3.8.

    + {b co-located}: source and destination share a colocation group and
      the SELECT maps a source distribution column onto the destination's;
      each shard group runs [INSERT INTO dest_shard SELECT ... FROM
      src_shards] locally, fully in parallel;
    + {b pull}: any other source, or a reference destination; the SELECT
      runs as a distributed SELECT (merge step included) and its rows are
      inserted with {!Dist_executor.insert_rows}: one
      [INSERT .. VALUES] through the planner's INSERT routing, replicated
      like any client INSERT.

    The paper's re-partition strategy, where workers ship rows to each
    other, is not reproduced: such rows travel through the coordinator. *)

(** Execute [INSERT INTO table (columns) SELECT ...]. *)
val execute :
  State.t ->
  Engine.Instance.session ->
  table:string ->
  columns:string list option ->
  select:Sqlfront.Ast.select ->
  on_conflict_do_nothing:bool ->
  Engine.Instance.result
