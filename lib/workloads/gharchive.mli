(** Synthetic GitHub-Archive events for the real-time analytics
    microbenchmarks (§4.2).

    The real benchmark loads a month of gharchive.org JSON; this generator
    produces push events with the same structural features the benchmark
    exercises: a random hex event id, a nested JSON payload with a commits
    array, ISO-8601 creation dates spread over a date range, and commit
    messages that occasionally contain the word "postgres" so the trigram
    index has something to find. *)

type config = {
  events : int;
  days : int;  (** created_at spread over this many days *)
  commits_per_event : int;
  postgres_fraction : float;  (** events whose messages mention postgres *)
}

(** Create the [github_events] table (distributed by event id under Citus)
    and the GIN trigram index on the commit messages, as in §4.2. *)
val setup_schema : Db.t -> unit

(** COPY lines (event_id <TAB> json) for [config] events, deterministic in
    [seed]. *)
val generate_lines : ?seed:int -> config -> string list

(** Load generated lines via COPY; returns rows loaded. *)
val load : Db.t -> ?seed:int -> config -> int

(** The paper's dashboard query: commits mentioning postgres per day. *)
val dashboard_query : string

(** The paper's transformation: extract per-event commit info into a
    co-located [commits] rollup table. Returns the INSERT..SELECT text. *)
val create_rollup_table : Db.t -> unit

val transformation_query : string
