(** A coordinator-held connection to one node.

    Statements travel as SQL text (the Citus planners deparse rewritten
    ASTs and the remote node re-parses), or — for plan-cache hits — as a
    bound execute of a statement the node parsed once per connection
    ({!exec_bound_async}). Every call counts one network round trip.
    Opening a connection has a cost too — the adaptive executor's
    slow-start exists precisely to manage it (§3.6.1). *)

type t

(** Raised instead of a generic failure when the fault plan says the
    target cannot be talked to: the node is down, the route is
    partitioned, a round trip was dropped, or the session died in a
    crash. Distinguishable so {!Health} records an infrastructure
    failure rather than misclassifying it as a statement error. On a
    dropped {e reply} the statement did execute remotely. *)
exception Node_unavailable of { node : string; reason : string }

(** Raised by {!await} when the handle's reply cannot land before the
    caller's deadline (absolute virtual time). The statement may have
    executed remotely — a timeout has exactly the ambiguity of a lost
    reply, and callers must treat it that way. *)
exception Timed_out of { node : string; deadline : float }

(** [open_ cluster node] establishes a connection (counted). A connection
    from the coordinator to itself still counts round trips, but they are
    not {e cross}-node round trips when [origin] names the same node — only
    cross traffic pays network latency in the simulation. With a fault
    plan attached, raises {!Node_unavailable} when the node is down or
    the connect path is cut. *)
val open_ : ?origin:string -> Topology.t -> Topology.node -> t

val node : t -> Topology.node

val session : t -> Engine.Instance.session

(** The pending outcome of a submitted statement. *)
type handle

(** [exec_async t sql] submits SQL text remotely: one round trip, result
    rows shipped back (counted in [rows_shipped]). The {e entire} round
    trip — fault-plan draws, remote execution, armed crash triggers —
    happens at the submit point; the handle carries the outcome plus the
    virtual time the reply lands (per the fault plan's latency model and
    any active stall — 0 extra without one). Fault streams therefore
    depend only on submission order, never on how concurrent awaits
    interleave.

    Call sites above the Citus layer should prefer [Citus.Exec], which
    adds partition/injection checks and circuit-breaker accounting and
    returns typed results. *)
val exec_async : t -> string -> handle

(** Deparse and submit a statement AST. *)
val exec_ast_async : t -> Sqlfront.Ast.statement -> handle

(** {2 Worker-side prepared statements}

    PostgreSQL's extended query protocol, parse once and bind many. The
    plan cache names one statement per (entry, shard group); the first
    bound execute of it on a connection carries its Parse, later ones
    only its name and the bound values. Pending DEALLOCATEs of retired
    statements ride in the same message, so this never costs an extra
    round trip. *)

type stmt = {
  stmt_name : string;  (** [citus_s<entry id>_<group>] *)
  stmt_prepared : Engine.Instance.prepared;
      (** the shard statement with its [$k] unbound, as the engine keeps
          a prepared statement. Its text, deparsed at the first remote
          send, is the Parse message's body and the text fault plans
          match against; its kept plan serves a task that runs on the
          dispatching session's own node (local execution), so a group
          that only ever runs locally is never deparsed. *)
  mutable stmt_live : bool;  (** false once {!retire}d *)
  stmt_retired : int ref;
      (** the owner's count of retired statements, shared by all it
          makes; a connection sweeps its registry only when it moved *)
}

(** The owner dropped [s] (its plan-cache entry was evicted or went
    stale): every connection that prepared it closes it with its next
    bound execute, and it is never executed again. *)
val retire : stmt -> unit

(** [exec_bound_async t s values] submits Close (retired statements),
    Parse ([s], if [t] has not prepared it) and Bind/Execute as one round
    trip, matched by the fault plan as [s]'s text. The node binds its
    stored AST and runs it through {!Engine.Instance.exec_bound}. Counts
    [exec.worker_prepares] and [exec.worker_bound_executes]. *)
val exec_bound_async : t -> stmt -> Datum.t list -> handle

(** Names this connection has prepared on its node, sorted. *)
val prepared_names : t -> string list

(** Collect the outcome: let the reply's virtual time pass as the
    cluster's {!Topology.driver} says ({!Topology.wait_until}: a fiber
    sleep under [Fibers], a clock advance stretched by one
    suspension-hazard draw under [Lone], a plain clock advance when
    [Unscheduled]), then return the result — re-raising whatever the
    round trip raised
    ({!Engine.Executor.Would_block}, parse errors, {!Node_unavailable}
    when the fault plan killed it, ...). With [?deadline] (absolute
    virtual time), waits only until the deadline and raises {!Timed_out}
    when the reply would land later. *)
val await : ?deadline:float -> handle -> Engine.Instance.result

(** Submit and discard the outcome — best-effort cleanup (a ROLLBACK
    posted to a stalled node) that must not wait out the reply. The
    statement still executes remotely and pays its fault-plan draws. *)
val post : t -> string -> unit

(** Deparse and execute a statement AST ([await] of {!exec_ast_async}). *)
val exec_ast : t -> Sqlfront.Ast.statement -> Engine.Instance.result

(** COPY a batch of data lines: one round trip per call, submitted and
    awaited as {!exec} is, so the reply's HLC stamp reaches the origin
    like any other's. The lines count as shipped rows. *)
val copy : t -> table:string -> columns:string list option -> string list -> int

(** True if the connection's session holds an open transaction block. *)
val in_transaction : t -> bool

(** Worker-side xid of the connection's open transaction, if any. *)
val backend_xid : t -> int option

(** {2 Distributed-snapshot channels}

    Every round trip already piggybacks HLC stamps: the request carries
    the origin's send stamp (merged into the destination clock before
    the statement runs), and an awaited reply merges the destination's
    post-execution stamp back into the origin. The remaining
    out-of-band session state — a read's visibility, pinned on
    {!session} around one statement, and the commit stamp below — would
    be message headers in a wire protocol, so none of it costs a round
    trip. *)

(** Arm the coordinator-assigned commit timestamp for the next
    [COMMIT PREPARED] executed on this connection — the visibility
    fence that makes a distributed transaction appear at one HLC time
    on every participant. *)
val set_next_commit_ts : t -> Txn.Hlc.timestamp -> unit
