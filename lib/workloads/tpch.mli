(** TPC-H-derived data-warehouse workload (§4.4).

    Following the paper's setup, [lineitem] and [orders] are distributed
    and co-located on the order key and the smaller tables become
    reference tables. Dates are day numbers (integers) to stay inside the
    engine's type system. The query set is a TPC-H-shaped subset adapted
    to the supported dialect — mirroring the paper, which ran the 18 of 22
    queries Citus supported.

    With [distribute_part = true], [part] is distributed by part key
    instead, so part–lineitem joins are non-co-located and exercise the
    join-order planner (re-partition / broadcast) — the ablation used in
    the benchmarks. *)

type config = {
  lineitem_rows : int;
  distribute_part : bool;
}

val setup : Db.t -> config -> unit

(** (name, SQL) pairs of the query set. *)
val queries : config -> (string * string) list

(** Queries the distributed planner cannot handle, with reasons —
    mirroring the paper's "4 of the 22 queries in TPC-H are not yet
    supported" (§4.4). *)
val unsupported_queries : (string * string * string) list
