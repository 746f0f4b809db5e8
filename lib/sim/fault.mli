(** Deterministic fault-injection plan for a simulated cluster.

    One [Fault.t] is shared by a whole cluster (see
    [Cluster.Topology.create ~fault_seed]). Every connection
    establishment and round trip consults it; all randomness comes from
    one seeded [Random.State.t] and all timing from the cluster's
    virtual {!Clock.t}, so a chaos run is a pure function of its seed:
    re-running with the same seed reproduces the same crashes,
    partitions and drops in the same order ({!trace} lets tests assert
    that bit-for-bit).

    Fault taxonomy:
    - {b node crash}: the node's epoch is bumped — every open session
      dies and in-memory state is lost; a restart replays the WAL
      ({!Engine.Instance.crash} / {!Engine.Instance.recover_from_wal}).
    - {b asymmetric partition}: a directed (from, to) link is cut;
      traffic the other way may still flow. ["*"] is a wildcard end,
      and a client with no node name connects as ["client"].
    - {b per-round-trip drop}: each request/reply is lost with a
      configured probability (a lost reply means the statement {e did}
      execute — the caller just never learns).
    - {b crash-after-statement}: a one-shot trigger that crashes a node
      right after it executes a matching statement — this is how a
      worker dies between [PREPARE TRANSACTION] and [COMMIT PREPARED].

    With no faults configured every check returns [Deliver] and draws
    from the RNG anyway, keeping the random stream identical whether or
    not a given round trip was at risk. *)

type t

(** What happens to one network interaction. *)
type verdict =
  | Deliver
  | Unreachable of string  (** node down or connect-path cut; nothing ran *)
  | Drop_request of string  (** request lost in flight; nothing ran *)
  | Drop_reply of string
      (** reply lost: the statement executed remotely, but the caller
          must treat the round trip as failed *)

val create : ?seed:int -> clock:Clock.t -> unit -> t


(** {2 Node registry} *)

(** Nodes must be registered so crash/restart can reach their engine. *)
val register_node : t -> name:string -> Engine.Instance.t -> unit

val node_up : t -> string -> bool

(** Observer, called with the node name after a crash (the cluster
    layer uses it to purge pooled connections). *)
val on_crash : t -> (string -> unit) -> unit

(** {2 Immediate faults} *)

val crash_now : t -> string -> unit

(** Replays the WAL and marks the node up again; no-op if not down. *)
val restart_now : t -> string -> unit

(** Cut / restore one directed link. Ends are node names, ["client"]
    (a connection with no origin node) or ["*"] (wildcard). *)
val partition_link : t -> from_:string -> to_:string -> unit

val heal_link : t -> from_:string -> to_:string -> unit

val link_up : t -> from_:string -> to_:string -> bool

(** Set loss probabilities for requests and replies, either for one
    [?node] (as destination) or as the cluster-wide default. *)
val set_drop_rate : ?node:string -> t -> request:float -> reply:float -> unit

(** Arm a one-shot crash: the next statement on [node] whose SQL
    contains [matching] (case-sensitive substring) executes, then the
    node crashes. With [lose_reply] (default [false]) the caller also
    never sees the statement's success. *)
val arm_crash_after :
  t -> node:string -> matching:string -> ?lose_reply:bool -> unit -> unit

(** {2 Gray failures: latency, stalls, suspension hazard}

    Unlike crashes and drops, gray faults never make anything {e fail} —
    they only make it {e slow}. Each round trip to a destination pays a
    seeded latency draw (uniform in [mean ± jitter], clamped at 0) plus,
    while the destination is stalled, a per-round-trip surcharge. All
    draws come from dedicated RNG streams, so enabling latency injection
    never shifts the crash/drop verdict stream of the same seed. *)

(** Set the round-trip latency distribution, per destination [?node] or
    as the cluster-wide default. Defaults to (0, 0): no injected time. *)
val set_latency : ?node:string -> t -> mean:float -> jitter:float -> unit

(** Brownout: every round trip to [node] pays [extra] additional seconds
    until [duration] from now has elapsed. The node stays up — statements
    still execute — it is merely slow; deadlines and hedging are the only
    defenses. *)
val stall_node : t -> node:string -> extra:float -> duration:float -> unit

val node_stalled : t -> string -> bool

(** {2 Clock skew}

    Skew never fails or delays anything by itself: it only bends what a
    node {e believes} the time is. The HLC layer (see
    [Cluster.Topology]) reads {!skewed_now} as its physical component,
    so skew stresses exactly the hybrid-logical-clock machinery — a
    skewed node issues timestamps from the future or the past, and the
    logical component must absorb it. *)

(** [set_clock_skew t ~node ~offset ~drift] makes [node]'s physical
    clock read [true_now + offset + drift * elapsed_since_set]. *)
val set_clock_skew : t -> node:string -> offset:float -> drift:float -> unit

(** [node]'s view of the current time: virtual clock plus skew. *)
val skewed_now : t -> string -> float

(** With probability [p], a fiber suspension point on any node takes an
    extra [stall] virtual seconds — scheduler-level jitter that shifts
    interleavings without failing anything. Draws are burnt at every
    suspension point regardless of [p]. *)
val set_suspension_hazard : t -> p:float -> stall:float -> unit

(** One suspension-point draw for [node]; returns the micro-stall to
    apply (usually 0.0). Wired into [Sim.Sched]'s [on_suspend] by
    [Citus.State.with_sched]; a lone task's waits draw it directly. *)
val at_suspension : t -> node:string -> float

(** One latency draw for a round trip to [to_]: distribution sample plus
    any active stall surcharge. Always burns exactly one draw. *)
val round_trip_latency : t -> to_:string -> float

(** {2 Scheduled faults (virtual time)} *)

(** [schedule_crash t ~at node] crashes [node] when the clock reaches
    [at]; with [down_for] a restart is scheduled [down_for] later. *)
val schedule_crash : t -> at:float -> ?down_for:float -> string -> unit

val schedule_partition :
  ?heal_after:float -> t -> at:float -> from_:string -> to_:string -> unit

(** [schedule_stall t ~at ~extra ~duration node] brownouts [node] from
    [at] until [at +. duration]. *)
val schedule_stall :
  t -> at:float -> extra:float -> duration:float -> string -> unit

(** [schedule_skew t ~at ~offset ~drift node] starts skewing [node]'s
    clock when the virtual clock reaches [at]. *)
val schedule_skew :
  t -> at:float -> offset:float -> drift:float -> string -> unit

(** Fire every scheduled event whose time has come (called by the
    cluster layer before each connect / round trip). *)
val tick : t -> unit

(** {2 Consultation points (called by [Cluster.Connection])} *)

val check_connect : t -> from_:string -> to_:string -> verdict

(** Consult before executing one statement on [to_]. Always draws the
    same number of random values regardless of configuration. *)
val check_round_trip : t -> from_:string -> to_:string -> sql:string -> verdict

(** Consult after a statement ran on [node]: fires an armed
    crash-after-statement trigger. [`Crashed lose_reply] means the node
    just crashed; with [lose_reply = true] the caller must discard the
    result and report failure. *)
val after_statement :
  t -> node:string -> sql:string -> [ `Proceed | `Crashed of bool ]

(** {2 Quiescence} *)

(** End the storm so invariants can be checked: cancel scheduled events,
    heal all links, zero all drop rates and latency distributions, clear
    stalls, clock skews and the suspension hazard, disarm triggers, and
    restart every down node (replaying WALs). *)
val quiesce : t -> unit

(** Every fault event so far, oldest first, timestamped with virtual
    time — equal traces mean equal fault schedules. *)
val trace : t -> string list
