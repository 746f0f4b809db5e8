(** Distributed deadlock detection (§3.7.3).

    The coordinator's maintenance daemon polls every node for its wait-for
    edges, merges worker transactions that belong to the same distributed
    transaction (via the shared registry), and searches the resulting graph
    for a cycle. If one exists, the youngest distributed transaction in the
    cycle is cancelled: its worker transactions and coordinator transaction
    are aborted, and its session observes the abort on its next statement. *)

type vertex =
  | Dist_txn of string * int  (** (coordinator node, coordinator xid) *)
  | Local_txn of string * int  (** (node, xid) with no distributed owner *)

val vertex_to_string : vertex -> string

(** Collect the cluster-wide wait-for graph (one polling round trip per
    node), merged by distributed transaction. *)
val gather_edges : State.t -> (vertex * vertex) list

(** One detector pass: returns the cancelled victim, if any. Only cancels
    distributed transactions (purely local cycles are left to the local
    detectors). *)
val detect_and_cancel : State.t -> vertex option
