(** Hybrid logical clock (Kulkarni et al.): a timestamp that tracks
    physical time when clocks are well-behaved, and falls back to a
    logical counter to preserve causal (happens-before) order when
    they are skewed or stalled.

    The physical component is supplied as a thunk so the same module
    serves both the standalone engine (constant 0 -> pure Lamport
    clock) and the simulated cluster, where each node's thunk reads
    [Sim.Clock] plus its injected skew. *)

type timestamp = { pt : float; lc : int }
(** [pt] physical component, [lc] logical tiebreaker. Ordered
    lexicographically. *)

val zero : timestamp
val compare_ts : timestamp -> timestamp -> int
val ( <= ) : timestamp -> timestamp -> bool
val ( < ) : timestamp -> timestamp -> bool
val pp : Format.formatter -> timestamp -> unit
val to_string : timestamp -> string
val of_string : string -> timestamp option

type t
(** One node's clock state: the physical thunk plus the last
    timestamp handed out. *)

val create : physical:(unit -> float) -> unit -> t

val peek : t -> timestamp
(** Last timestamp issued, without advancing the clock. *)

val now : t -> timestamp
(** Local or send event: returns a timestamp strictly greater than
    every timestamp previously issued by this clock, and >= the
    physical clock. *)

val observe : t -> timestamp -> timestamp
(** Receive event: merge a remote timestamp into the local clock.
    The result is strictly greater than both the remote stamp and
    every timestamp previously issued locally. *)
