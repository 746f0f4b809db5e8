(** GIN-style trigram index (pg_trgm's [gin_trgm_ops]).

    Indexes the lowercase character trigrams of a text value per tuple and
    answers substring-containment queries ([ILIKE '%pattern%']): the
    candidate set is the intersection of the posting lists of the pattern's
    trigrams, and the executor rechecks candidates against the heap — the
    same recheck discipline PostgreSQL uses.

    Maintaining the index on writes is deliberately expensive (one posting
    update per trigram), reproducing the write-amplification the paper's
    COPY microbenchmark (Fig. 7a) exercises. *)

type t

val create : name:string -> unit -> t

val name : t -> string

(** Trigrams of a string after pg_trgm-style normalization (lowercase,
    padded with two leading and one trailing space per word). Exposed for
    tests. *)
val trigrams_of : string -> string list

(** Index [text] for tuple [tid]; returns the number of posting-list
    updates performed (for write-cost accounting). Touches one logical
    page per posting list updated when [pool] is given — index write
    amplification is what Figure 7a measures. *)
val add : ?pool:Buffer_pool.t -> t -> tid:int -> string -> int

val remove : t -> tid:int -> string -> unit

(** Candidate tids possibly containing [pattern] as a substring
    (case-insensitive). [None] when the pattern is too short to extract a
    trigram, in which case the caller must fall back to a full scan.
    Touches one logical page per posting list consulted. *)
val candidates : ?pool:Buffer_pool.t -> t -> string -> int list option

val page_count : t -> int

(** Drop all postings. *)
val clear : t -> unit
