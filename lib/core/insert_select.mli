(** Distributed INSERT..SELECT — the three strategies of §3.8.

    + {b co-located}: source and destination share a colocation group and
      the SELECT maps a source distribution column onto the destination's;
      each shard group runs [INSERT INTO dest_shard SELECT ... FROM
      src_shards] locally, fully in parallel;
    + {b re-partition}: the SELECT is pushdownable but rows land on other
      shards; task results are hash-partitioned by the destination
      distribution column and inserted per destination shard;
    + {b pull}: the SELECT needs a coordinator merge step; it runs as a
      distributed SELECT and the result is routed like a COPY. *)

type strategy = Colocated | Repartition | Pull

(** Execute [INSERT INTO table (columns) SELECT ...]; returns the result
    and which strategy ran. *)
val execute :
  State.t ->
  Engine.Instance.session ->
  table:string ->
  columns:string list option ->
  select:Sqlfront.Ast.select ->
  on_conflict_do_nothing:bool ->
  Engine.Instance.result * strategy
