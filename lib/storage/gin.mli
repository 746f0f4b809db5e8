(** GIN-style trigram index (pg_trgm's [gin_trgm_ops]).

    Indexes the lowercase character trigrams of a text value per tuple and
    answers substring-containment queries ([ILIKE '%pattern%']): the
    candidate set is the intersection of the posting lists of the pattern's
    trigrams, and the executor rechecks candidates against the heap — the
    same recheck discipline PostgreSQL uses.

    Maintaining the index on writes is deliberately expensive in the
    meter (one index update per trigram), reproducing the
    write-amplification the paper's COPY microbenchmark (Fig. 7a)
    exercises.

    Each trigram's posting is a sorted tid array. New entries go to a
    pending list first, GIN's fast update: {!add} appends one run of
    codes per row, and {!cleanup} (PostgreSQL's [ginInsertCleanup])
    merges them into the postings in bulk. Cleanup runs at every
    maintenance tick, at the start of {!bulk_delete}, and inside {!add}
    once the list holds {!pending_limit} entries. {!candidates} also
    scans the pending list, so results do not depend on when cleanup
    ran. Entries leave only by {!bulk_delete}, the vacuum pass
    PostgreSQL calls [ginbulkdelete]; a posting emptied by it keeps its
    logical page. *)

type t

val create : name:string -> unit -> t


(** Trigram codes of a string after pg_trgm-style normalization
    (lowercase alphanumeric words, each padded with two leading and one
    trailing space when [pad]), ascending and distinct. A trigram's code
    is [b0 lsl 16 lor b1 lsl 8 lor b2]. Exposed for tests. *)
val codes : pad:bool -> string -> int array

(** Pending entries at which {!add} runs {!cleanup} itself. Exposed for
    tests. *)
val pending_limit : int

(** Index [text] for tuple [tid]: appends its trigram codes to the
    pending list. Returns the number of trigrams, the posting updates
    the meter charges whenever they are merged. With [pool], touches
    the pending list's page once when [text] yields a trigram (and the
    postings of a cleanup the limit sets off). *)
val add : ?pool:Buffer_pool.t -> t -> tid:int -> string -> int

(** Merge the pending list into the postings and release its storage.
    With [pool], touches each merged posting's page once, in code
    order, numbering it on its first touch. The meter is not charged:
    {!add} already counted these updates. *)
val cleanup : ?pool:Buffer_pool.t -> t -> unit

(** [bulk_delete t dead] runs {!cleanup}, then drops the tids in [dead]
    (ascending, distinct) from every posting in one pass; returns how
    many of them the index held. Vacuum calls it before any reclaimed
    slot is reused. *)
val bulk_delete : ?pool:Buffer_pool.t -> t -> int array -> int

(** Candidate tids possibly containing [pattern] as a substring
    (case-insensitive), ascending: the postings' intersection plus the
    pending rows holding every query trigram. [None] when the pattern is
    too short to extract a trigram, in which case the caller must fall
    back to a full scan. Touches one logical page per posting list
    consulted, then the pending page when the list is not empty. *)
val candidates : ?pool:Buffer_pool.t -> t -> string -> int list option

(** Drop all postings and the pending list. *)
val clear : t -> unit
