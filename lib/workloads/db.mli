(** Benchmark database handles: the four setups of §4.

    - [postgres]: one plain MiniPG node, no extension — the paper's
      baseline;
    - [citus ~workers:0]: a single node with Citus sharding locally
      ("Citus 0+1");
    - [citus ~workers:4] / [~workers:8]: coordinator + workers.

    [buffer_pages] is per node: the scaled-down stand-in for 64 GB of RAM
    that produces the fits-in-memory crossovers. *)

type t = {
  cluster : Cluster.Topology.t;
  citus : Citus.Api.t option;
  session : Engine.Instance.session;
  label : string;
}

val postgres : ?buffer_pages:int -> unit -> t

val citus : ?buffer_pages:int -> ?shard_count:int -> workers:int -> unit -> t


val exec : t -> string -> Engine.Instance.result

val exec_on : Engine.Instance.session -> string -> Engine.Instance.result

(** Distribute / reference a table when running under Citus; no-op on the
    plain-PostgreSQL baseline. *)
val distribute : t -> table:string -> column:string -> ?colocate_with:string -> unit -> unit

val reference : t -> table:string -> unit

(** Register a stored procedure on every node (workers need it when calls
    are delegated). *)
val register_procedure :
  t -> string -> (Engine.Instance.session -> Datum.t list -> Datum.t) -> unit

(** Total row count convenience. *)
val count : t -> string -> int
