(** Cost model: logical work counters → seconds of resource time.

    This is the substitution for the paper's Azure testbed (16 vcpus, 64 GB,
    7500 IOPS network disks, sub-millisecond round trips). The executor and
    buffer pools count logical work; this module prices it. Absolute values
    are calibrated so that relative effects (memory fit, parallelism,
    round-trip overhead) dominate — matching shapes, not absolute numbers,
    per the reproduction contract. *)

type node_spec = {
  cores : int;  (** parallel CPU capacity *)
  iops : float;  (** page misses served per second *)
  cpu_unit : float;  (** seconds per abstract CPU unit (see {!Engine.Meter}) *)
}

(** The paper's worker VM: 16 vcpus, 7500 IOPS. *)
val default_spec : node_spec

(** Round-trip latency between any two nodes, in seconds. *)
val default_rtt : float

(** Cost of establishing a new connection (process fork + auth), seconds. *)
val connection_setup_cost : float

type node_demand = {
  cpu_s : float;  (** total CPU-seconds consumed on the node *)
  io_s : float;  (** total disk-seconds (misses / iops) *)
}

(** The demand of [cpu_units] of metered work and [misses] page misses;
    [demand_of] takes a meter's {!Engine.Meter.total_cpu_units}. *)
val demand : spec:node_spec -> cpu_units:float -> misses:int -> node_demand

val demand_of :
  spec:node_spec -> meter:Engine.Meter.snapshot -> misses:int -> node_demand

val zero_demand : node_demand

(** Elapsed time for one operation executed alone on a node, with its CPU
    part spread over [parallelism] cores (≤ spec cores) and IO serialized
    against the IOPS budget; CPU and IO overlap. *)
val solo_elapsed : spec:node_spec -> parallelism:int -> node_demand -> float

(** {2 Closed-workload throughput}

    Operational-analysis bounds for a closed system with [clients]
    concurrent clients, each looping: think [think_s], then execute a
    transaction whose resource demands are [demands] (one entry per
    service center, each with a number of servers) plus pure network delay
    [delay_s]:

    X = min(clients / (R0 + think), min over centers (servers / demand))

    where R0 = sum of demands + delay. Reported response time is
    clients/X - think when the system saturates. *)

type center = { demand_s : float; servers : float }

type closed_result = {
  throughput : float;  (** transactions per second *)
  response_s : float;  (** average response time *)
  bottleneck : int option;  (** index of the saturated center, if any *)
}

val closed_throughput :
  clients:int -> think_s:float -> delay_s:float -> centers:center list ->
  closed_result
