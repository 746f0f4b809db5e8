(** Per-node health tracking: a circuit breaker over the simulated clock.

    Every network operation reports success or failure here. A node whose
    consecutive failures reach the threshold trips its breaker [Open]: the
    planner stops preferring its placements and the executors stop probing
    it until the backoff elapses, at which point the breaker turns
    [Half_open] and lets a single probe through — success closes it,
    failure re-opens it with a doubled backoff (capped). All timing uses
    {!Sim.Clock}, so tests stay deterministic.

    The tracker also counts best-effort [COMMIT PREPARED] failures
    ({!record_failed_commit}), which the 2PC recovery daemon later
    resolves; the count lets tests and the health report observe that
    recovery actually had work to do. *)

type breaker = Closed | Open | Half_open

val breaker_name : breaker -> string

type node_stats = {
  mutable consecutive_failures : int;
  mutable failures : int;  (** total network errors *)
  mutable successes : int;  (** total completed operations *)
  mutable failed_commits : int;
      (** best-effort COMMIT PREPARED sends that failed *)
  mutable ignored_errors : int;
      (** exceptions swallowed by best-effort cleanup (e.g. ROLLBACK on an
          already-failing node), counted so they stay observable *)
  mutable slow_events : int;
      (** total deadline expiries against this node — gray failures: the
          node answered, just too late *)
  mutable consecutive_slow : int;
  mutable breaker : breaker;
  mutable opened_at : float;  (** clock time the breaker last opened *)
  mutable backoff : float;  (** current open-interval / retry backoff *)
}

type t = {
  clock : Sim.Clock.t;
  nodes : (string, node_stats) Hashtbl.t;
  metrics : Obs.Metrics.t option;
      (** when present, breaker transitions count into the registry
          ([breaker.<from>_to_<to>]) and [breaker.tripped] gauges the
          currently-open breakers *)
  mutable failure_threshold : int;
      (** consecutive failures that trip the breaker *)
  mutable slow_threshold : int;
      (** consecutive slow events (deadline expiries) that trip it *)
  mutable base_backoff : float;  (** seconds *)
  mutable max_backoff : float;
}

val create :
  ?failure_threshold:int ->
  ?slow_threshold:int ->
  ?base_backoff:float ->
  ?max_backoff:float ->
  ?metrics:Obs.Metrics.t ->
  clock:Sim.Clock.t ->
  unit ->
  t

(** Stats for a node, created zeroed on first touch. *)
val stats : t -> string -> node_stats

(** Current breaker state; resolves [Open] to [Half_open] when the
    backoff has elapsed on the clock. *)
val breaker_state : t -> string -> breaker

val record_success : t -> string -> unit

val record_failure : t -> string -> unit

(** The latency-aware trip signal: a statement deadline expired against
    this node, but nothing {e failed} — the node is alive, just slow.
    Never counts toward [consecutive_failures] (so nothing marks the
    node or its placements dead); enough consecutive slow events still
    trip the breaker [Open] so a browned-out node sheds load until its
    backoff elapses. Counted into [health.slow_events] and, on a trip,
    [breaker.tripped_slow]. *)
val record_slow : t -> string -> unit

val slow_events : t -> string -> int

val record_failed_commit : t -> string -> unit

val failed_commits : t -> string -> int

(** Record an exception that best-effort cleanup deliberately swallowed;
    the per-node count keeps it visible to monitoring and tests (lint rule
    L5 requires every catch-all in the 2PC/health/deadlock paths to either
    re-raise or record). *)
val record_ignored : t -> string -> unit

(** [false] only while the breaker is [Open] (within its backoff):
    half-open nodes accept a probe. *)
val available : t -> string -> bool

(** Suggested wait before the next retry against this node. *)
val retry_backoff : t -> string -> float

type node_report = {
  nr_node : string;
  nr_breaker : breaker;
  nr_consecutive_failures : int;
  nr_failures : int;
  nr_successes : int;
  nr_failed_commits : int;
  nr_ignored_errors : int;
  nr_slow_events : int;
}

(** Snapshot of every tracked node, sorted by name. *)
val report : t -> node_report list
