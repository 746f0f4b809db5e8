(** Buffer pool: an accounting LRU over logical page ids.

    Table data lives in OCaml values; what we model is *which pages are in
    memory*. Every page access goes through [access], which classifies it as
    a hit or a miss and maintains hit/miss counters. The simulation layer
    converts misses into I/O time against the node's IOPS budget — this is
    how "the working set fits in cluster memory at 4+1 but not on one node"
    produces the paper's crossovers. *)

type page_id = { relation : string; page_no : int }

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
}

(** [create ~capacity] makes a pool holding at most [capacity] pages. *)
val create : capacity:int -> t


(** Record an access; faults the page in (possibly evicting LRU) on miss.
    Returns [true] on hit. *)
val access : t -> page_id -> bool

val stats : t -> stats

val misses : t -> int  (** [(stats t).misses], with no record built *)

val reset_stats : t -> unit

(** Drop all cached pages (e.g. simulated restart). Stats are kept. *)
val clear : t -> unit

val cached_pages : t -> int
