(** B+tree secondary index over composite datum keys.

    Keys are datum arrays compared lexicographically; a shorter key that
    is a prefix of a longer one sorts first, which is what makes prefix
    scans work. Values are heap tuple ids. Duplicates share one posting
    list per key, so the index is MVCC-agnostic: the executor checks
    visibility against the heap, as PostgreSQL does.

    Nodes hold sorted arrays, as nbtree pages do: a leaf has its keys and
    their posting lists plus a link to its right sibling; an internal node
    has its separators and one more child. Every probe binary-searches
    each node on its path. A node splits when it holds more than [order]
    keys (default 32); the left half keeps [len/2] of them.

    Deletion is lazy and by tid alone ({!bulk_delete}): vacuumed tids
    leave their posting lists and a key with no tids leaves its leaf,
    but nodes never merge, so empty leaves stay in the sibling chain.

    Each node is one logical page of relation ["idx:" ^ name], numbered
    in allocation order. Operations given [?pool] touch every node on
    their descent path; a scan then touches its first leaf again and each
    further leaf it walks into. *)

type key = Datum.t array

type t

type bound = Incl of key | Excl of key | Unbounded

val create : name:string -> ?order:int -> unit -> t

(** Add one (key, tid) pairing, in one descent. *)
val insert : ?pool:Buffer_pool.t -> t -> key -> int -> unit

(** [bulk_delete t dead] drops every entry whose tid is in [dead]
    (ascending, distinct) in one walk of the leaf chain, PostgreSQL's
    [btbulkdelete]; returns how many entries it dropped. Touches no
    page. Vacuum calls it before any reclaimed slot is reused. *)
val bulk_delete : t -> int array -> int

(** Tuple ids with exactly this key, newest first. *)
val find_eq : ?pool:Buffer_pool.t -> t -> key -> int list

(** Entries in key order within the bounds, each key's tids oldest first.
    The walk moves on to the next leaf iff the current one is empty or its
    last key is within [upper]. *)
val range :
  ?pool:Buffer_pool.t -> t -> lower:bound -> upper:bound -> (key * int) list

(** Entries whose key starts with [prefix], in key order, each key's tids
    oldest first. The walk moves on to the next leaf iff the current one
    is empty or its last key starts with [prefix] or sorts before it. *)
val prefix : ?pool:Buffer_pool.t -> t -> key -> (key * int) list

val entry_count : t -> int

val depth : t -> int

val page_count : t -> int

(** Drop all entries. *)
val clear : t -> unit
