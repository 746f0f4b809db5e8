(** Deterministic cooperative scheduler over the virtual clock.

    Fibers are cooperatively scheduled, single-threaded coroutines (OCaml
    effect handlers — no OS threads, no preemption). A fiber runs until it
    spawns, awaits, sleeps, yields or waits on a {!cond}; the scheduler
    then picks the next runnable fiber from per-node FIFO ready queues.
    The virtual clock advances {e only} when nothing is runnable, jumping
    to the earliest sleeping fiber and firing [on_advance] first — which
    is how scheduled faults ({!Fault.tick}) interleave with in-flight
    fibers at deterministic virtual times.

    Scheduling order is bit-reproducible: unseeded, ready queues are
    visited in strict round-robin over first-seen node order; with
    [seed], the next non-empty queue is drawn from a scheduler-owned
    [Random.State], so chaos tests can fuzz interleavings per seed
    without perturbing the fault plan's own RNG stream.

    All operations except {!run} must be called from inside a fiber of
    the same scheduler (they perform effects handled by {!run}); calling
    them elsewhere raises [Effect.Unhandled]. Nested [run]s are legal —
    inner-scheduler effects resolve against the inner run loop, anything
    else is forwarded outward. *)

type t

(** A spawned computation. Results (or exceptions) are delivered through
    {!await} / {!await_result}; a failed fiber that is never awaited
    re-raises its exception when {!run} finishes (failures cannot be
    silently dropped) — except {!Cancelled}, which is a demanded
    outcome, never a lost error. *)
type 'a fiber

(** FIFO wait queue for resource guards (connection-pool slots): {!wait}
    suspends the calling fiber, {!broadcast} makes every waiter runnable
    again (each re-checks its predicate and may wait again). *)
type cond

(** Raised {e inside} a fiber when a {!cancel} is delivered at one of its
    suspension points. Delivery is one-shot: after the fiber has seen
    [Cancelled] once, later suspension points behave normally, so
    [Fun.protect] cleanup can still sleep, await and broadcast. *)
exception Cancelled

(** Resolved by {!await} / {!await_result} when the [?deadline] passes
    before the awaited fiber finishes. The target fiber keeps running —
    the caller decides whether to {!cancel} it. *)
exception Timed_out

(** [run ?seed ?on_advance ?on_suspend ~clock f] drives [f] — the main
    fiber — plus everything it spawns, until {e all} fibers have
    finished, then returns [f]'s result. Re-raises the main fiber's
    exception, or the first unawaited fiber failure. [on_advance] runs
    after every clock jump (wire the cluster's fault tick here).
    [on_suspend ~node] fires at every fiber suspension point — the
    fault plan's gray-failure hook — and returns extra virtual delay
    (a micro-stall) applied to sleeps and yields on that node; the
    default returns [0.0]. Raises [Failure] when live fibers remain but
    nothing is runnable or sleeping. *)
val run :
  ?seed:int ->
  ?on_advance:(unit -> unit) ->
  ?on_suspend:(node:string -> float) ->
  clock:Clock.t ->
  (t -> 'a) ->
  'a

(** Start a fiber on [node]'s ready queue (default ["main"]). The caller
    keeps running; the child gets its first slice when the caller next
    suspends. A child spawned by a cancel-requested parent (before the
    cancellation was delivered) starts out cancelled. *)
val spawn : t -> ?node:string -> (unit -> 'a) -> 'a fiber

(** Suspend until the fiber finishes; return its value or re-raise its
    exception. With [?deadline] (absolute virtual time), raises
    {!Timed_out} once the clock reaches it — the target fiber is {e not}
    cancelled implicitly. *)
val await : t -> ?deadline:float -> 'a fiber -> 'a

(** Like {!await} but returns the failure instead of raising — for
    fan-outs that must collect every outcome before deciding (2PC).
    A passed [?deadline] resolves [Error Timed_out]. *)
val await_result : t -> ?deadline:float -> 'a fiber -> ('a, exn) result

(** Suspend until the {e first} of the fibers finishes; return its index
    (list position) and result. The hedged-read race: award the winner,
    then {!cancel} the losers. Raises [Invalid_argument] on []. *)
val await_any : t -> 'a fiber list -> int * ('a, exn) result

(** Await every fiber (all complete even if some fail), then return the
    values — or re-raise the first failure in list order. *)
val join_all : t -> 'a fiber list -> 'a list

(** Request cancellation of a fiber and, transitively, every fiber it
    spawned. Suspended fibers are discontinued with {!Cancelled}
    promptly; running ones at their next suspension point; finished ones
    are left alone. Idempotent. Cancellation is cooperative — the fiber
    observes [Cancelled] as an exception and its [Fun.protect] cleanup
    runs normally. *)
val cancel : t -> 'a fiber -> unit

(** Go to the back of the caller's ready queue. *)
val yield : t -> unit

(** Current virtual time (the shared clock). *)
val now : t -> float

(** Suspend for [d] virtual seconds (no-op when [d <= 0]). The clock
    advances only once no fiber is runnable. *)
val sleep : t -> float -> unit

(** Suspend until an absolute virtual time (no-op when already past). *)
val sleep_until : t -> float -> unit

val make_cond : unit -> cond

val wait : t -> cond -> unit

(** Like {!wait}, but also wakes when the clock reaches the absolute
    time [until] even if nobody broadcasts — for waiters racing a freed
    resource against a deadline (the executor's slow-start ramp gates).
    Callers re-check their predicate on wake-up either way. *)
val timed_wait : t -> cond -> until:float -> unit

val broadcast : t -> cond -> unit
