(** The distributed-transaction microbenchmark of §4.1.1 (Figure 9).

    Two co-located tables distributed by key; the transaction updates one
    row in each. With the same key both updates hit one node (single-node
    commit); with independent random keys the rows usually land on
    different nodes and commit runs 2PC. *)

type config = { rows : int }

val setup : Db.t -> config -> unit

type mode = Same_key | Different_keys

(** One two-update transaction; returns whether it crossed nodes (always
    false on plain PostgreSQL). *)
val run_one :
  Db.t -> Engine.Instance.session -> config -> mode -> Random.State.t -> bool

(** Invariant: the sum over both tables of [v] is zero. *)
val balance_invariant_holds : Db.t -> bool
