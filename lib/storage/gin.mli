(** GIN-style trigram index (pg_trgm's [gin_trgm_ops]).

    Indexes the lowercase character trigrams of a text value per tuple and
    answers substring-containment queries ([ILIKE '%pattern%']): the
    candidate set is the intersection of the posting lists of the pattern's
    trigrams, and the executor rechecks candidates against the heap — the
    same recheck discipline PostgreSQL uses.

    Maintaining the index on writes is deliberately expensive (one posting
    update per trigram), reproducing the write-amplification the paper's
    COPY microbenchmark (Fig. 7a) exercises.

    Each trigram's posting is a sorted tid array. Entries leave only by
    {!bulk_delete}, the vacuum pass PostgreSQL calls [ginbulkdelete]; a
    posting emptied by it keeps its logical page. *)

type t

val create : name:string -> unit -> t

val name : t -> string

(** Trigram codes of a string after pg_trgm-style normalization
    (lowercase alphanumeric words, each padded with two leading and one
    trailing space when [pad]), ascending and distinct. A trigram's code
    is [b0 lsl 16 lor b1 lsl 8 lor b2]. Exposed for tests. *)
val codes : pad:bool -> string -> int array

(** Index [text] for tuple [tid]; returns the number of posting-list
    updates performed (for write-cost accounting). Touches one logical
    page per posting list updated when [pool] is given — index write
    amplification is what Figure 7a measures. *)
val add : ?pool:Buffer_pool.t -> t -> tid:int -> string -> int

(** [bulk_delete t dead] drops the tids in [dead] (ascending, distinct)
    from every posting in one pass; returns how many of them the index
    held. Vacuum calls it before any reclaimed slot is reused. *)
val bulk_delete : t -> int array -> int

(** Candidate tids possibly containing [pattern] as a substring
    (case-insensitive), ascending. [None] when the pattern is too short
    to extract a trigram, in which case the caller must fall back to a
    full scan. Touches one logical page per posting list consulted. *)
val candidates : ?pool:Buffer_pool.t -> t -> string -> int list option

(** Drop all postings. *)
val clear : t -> unit
