(** Hierarchical span tracing, deterministic under the virtual clock.

    Spans carry sequential ids, an explicit parent (from the nesting
    stack), a kind, the node they ran on, virtual-clock start/duration
    and key/value tags. Timestamps always come from the caller (the
    simulated clock) so same-seed runs yield bit-identical trees.

    The sink starts disabled; in that state {!with_span} is a single
    branch that passes [None] to the body — no allocation, no clock
    read. *)

type span = {
  id : int;
  parent : int option;
  kind : string;
  node : string;
  start : float;
  mutable duration : float;
  mutable tags : (string * string) list;
  mutable closed : bool;
}

type t

val create : unit -> t

val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Drop all spans and restart ids from 1. *)
val reset : t -> unit

(** Spans ever opened / closed (conservation: equal when quiescent). *)
val started : t -> int

val finished : t -> int

(** Currently-open spans (the [citus_stat_activity()] view). *)
val open_count : t -> int

(** Open spans, outermost first. *)
val open_spans : t -> span list

(** All spans in creation order. *)
val spans : t -> span list

(** Position marker; [spans_since t (mark t)] captures what a later
    operation produced (how [citus_explain(..., 'analyze')] scopes its
    tree). *)
val mark : t -> int

val spans_since : t -> int -> span list

(** [with_span t ~now ~node ~kind f] runs [f] inside a fresh span (or
    with [None] when disabled). The span closes even if [f] raises;
    duration is elapsed virtual time. The parent is the innermost span
    currently open on the nesting stack. *)
val with_span :
  t ->
  now:(unit -> float) ->
  node:string ->
  kind:string ->
  ?tags:(string * string) list ->
  (span option -> 'a) ->
  'a

(** Innermost open span on the nesting stack, if any — capture this
    {e before} spawning fibers and hand it to {!with_span_parent}. *)
val current : t -> span option

(** Like {!with_span} but with an explicit parent and {e no} interaction
    with the nesting stack: concurrent fibers interleave their spans, so
    stack-based parenthood would attribute a fragment to whichever span
    another fiber happened to have open. *)
val with_span_parent :
  t ->
  parent:span option ->
  now:(unit -> float) ->
  node:string ->
  kind:string ->
  ?tags:(string * string) list ->
  (span option -> 'a) ->
  'a

(** The raw halves of {!with_span}, exported for the tracing layer's own
    plumbing. Production code must use {!with_span} /
    {!with_span_parent}, which guarantee span conservation (every open
    gets a close even on exceptions); lint rule L8 flags direct calls
    outside [lib/obs/]. *)
val open_span :
  t ->
  now:(unit -> float) ->
  node:string ->
  kind:string ->
  ?parent:int ->
  ?tags:(string * string) list ->
  unit ->
  span

val close_span : t -> now:(unit -> float) -> span -> unit

(** No-ops on [None] so instrumentation never branches on the sink. *)
val add_tag : span option -> string -> string -> unit

(** Indented tree, creation order; spans whose parent is outside the
    given list render as roots. *)
val render_tree : span list -> string list
