(** Distributed query plans (§3.5).

    A plan is a set of tasks — statements bound to shards on specific
    nodes — plus an optional coordinator-side merge step. The planners in
    {!Planner} produce these; {!Dist_executor} runs them through the
    adaptive executor. *)

type task = {
  task_node : string;  (** target node name *)
  task_stmt : Sqlfront.Ast.statement;  (** already shard-rewritten *)
  task_group : int;  (** shard-group index; -1 when not shard-bound *)
  task_shard : int;
      (** anchor shard id, or -1 when not shard-bound. Lets the executor
          find the other replicas of the shard: reads fail over to them,
          writes are replicated across them (statement-based replication). *)
}

(** Coordinator merge step for multi-shard SELECTs: [master] runs over
    the collected task rows, which its FROM names
    {!Planner.intermediate_relation} and whose columns are
    [intermediate_columns]. *)
type merge = {
  master : Sqlfront.Ast.select;
  intermediate_columns : string list;
}

type t =
  | Fast_path of task
      (** single-shard CRUD; distribution value extracted directly *)
  | Router of task
      (** arbitrary single-shard-group query *)
  | Multi_shard_select of { tasks : task list; merge : merge }
      (** logical pushdown: parallel tasks + coordinator merge *)
  | Multi_shard_dml of { tasks : task list }
      (** parallel distributed DML (UPDATE/DELETE/INSERT split by shard) *)
  | Reference_write of task
      (** write to a reference table: the executor replicates the single
          task across every active replica of the reference shard *)

let tasks_of = function
  | Fast_path t | Router t | Reference_write t -> [ t ]
  | Multi_shard_select { tasks; _ } | Multi_shard_dml { tasks } -> tasks
