(** COPY on Citus tables (§3.8).

    The coordinator parses the incoming stream (the single-core cost that
    caps Figure 7a), routes each row to its shard by hashing the
    distribution column, and streams per-shard batches to the workers —
    so the insert and index-maintenance work parallelizes across shards
    and nodes even for a single COPY session. Reference tables receive the
    whole batch on every replica. COPY is the one write path that keeps
    its own transport ([Connection.copy]) rather than
    {!Dist_executor.insert_rows}: lines go to the workers as lines, with
    no deparse and re-parse per row. *)

(** Hook installed into {!Engine.Instance.set_copy_hook}: [None] when the
    table is not a Citus table. *)
val copy_hook :
  State.t ->
  Engine.Instance.session ->
  table:string ->
  columns:string list option ->
  string list ->
  int option
