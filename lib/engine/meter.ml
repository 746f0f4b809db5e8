(* Live counters: an increment is one field store, not a record copy.
   A snapshot is a copy of the same record. *)
type snapshot = {
  mutable rows_scanned : int;
  mutable rows_written : int;
  mutable index_probes : int;
  mutable index_updates : int;
  mutable rows_sorted : int;
  mutable rows_aggregated : int;
  mutable statements : int;
  mutable light_statements : int;
  mutable routed_statements : int;
  mutable bound_executes : int;
  mutable twopc_statements : int;
  mutable copy_rows : int;
  mutable merge_rows : int;
}

type t = snapshot

let create () : t =
  {
    rows_scanned = 0;
    rows_written = 0;
    index_probes = 0;
    index_updates = 0;
    rows_sorted = 0;
    rows_aggregated = 0;
    statements = 0;
    light_statements = 0;
    routed_statements = 0;
    bound_executes = 0;
    twopc_statements = 0;
    copy_rows = 0;
    merge_rows = 0;
  }

let read (t : t) = { t with rows_scanned = t.rows_scanned }

let zero = read (create ())

let diff ~after ~before =
  {
    rows_scanned = after.rows_scanned - before.rows_scanned;
    rows_written = after.rows_written - before.rows_written;
    index_probes = after.index_probes - before.index_probes;
    index_updates = after.index_updates - before.index_updates;
    rows_sorted = after.rows_sorted - before.rows_sorted;
    rows_aggregated = after.rows_aggregated - before.rows_aggregated;
    statements = after.statements - before.statements;
    light_statements = after.light_statements - before.light_statements;
    routed_statements = after.routed_statements - before.routed_statements;
    bound_executes = after.bound_executes - before.bound_executes;
    twopc_statements = after.twopc_statements - before.twopc_statements;
    copy_rows = after.copy_rows - before.copy_rows;
    merge_rows = after.merge_rows - before.merge_rows;
  }

let add_scanned (t : t) n = t.rows_scanned <- t.rows_scanned + n
let add_written (t : t) n = t.rows_written <- t.rows_written + n
let add_probe (t : t) n = t.index_probes <- t.index_probes + n
let add_index_update (t : t) n = t.index_updates <- t.index_updates + n
let add_sorted (t : t) n = t.rows_sorted <- t.rows_sorted + n
let add_aggregated (t : t) n = t.rows_aggregated <- t.rows_aggregated + n
let add_statement (t : t) = t.statements <- t.statements + 1
let add_light_statement (t : t) = t.light_statements <- t.light_statements + 1
let add_routed_statement (t : t) = t.routed_statements <- t.routed_statements + 1
let add_bound_execute (t : t) = t.bound_executes <- t.bound_executes + 1
let add_twopc_statement (t : t) = t.twopc_statements <- t.twopc_statements + 1
let add_copy_rows (t : t) n = t.copy_rows <- t.copy_rows + n
let add_merge_rows (t : t) n = t.merge_rows <- t.merge_rows + n

(* Stable field order, for folding into the metrics registry. *)
let to_assoc s =
  [
    ("rows_scanned", s.rows_scanned);
    ("rows_written", s.rows_written);
    ("index_probes", s.index_probes);
    ("index_updates", s.index_updates);
    ("rows_sorted", s.rows_sorted);
    ("rows_aggregated", s.rows_aggregated);
    ("statements", s.statements);
    ("light_statements", s.light_statements);
    ("routed_statements", s.routed_statements);
    ("bound_executes", s.bound_executes);
    ("twopc_statements", s.twopc_statements);
    ("copy_rows", s.copy_rows);
    ("merge_rows", s.merge_rows);
  ]

let merge_row_weight = 0.1

(* Abstract CPU weights, calibrated against Sim.Cost.cpu_unit = 20 µs:
   a planned statement costs ~0.4 ms (parse + plan + executor setup), an
   in-memory tuple operation a few µs, a durable row write ~20 µs, a COPY
   line (JSON parse) ~30 µs. Only ratios matter for the reproduced
   shapes. *)
let units_since (t : t) (b : snapshot) =
  (0.15 *. float_of_int (t.rows_scanned - b.rows_scanned))
  +. (1.0 *. float_of_int (t.rows_written - b.rows_written))
  +. (0.25 *. float_of_int (t.index_probes - b.index_probes))
  +. (0.5 *. float_of_int (t.index_updates - b.index_updates))
  +. (0.1 *. float_of_int (t.rows_sorted - b.rows_sorted))
  +. (0.15 *. float_of_int (t.rows_aggregated - b.rows_aggregated))
  +. (20.0 *. float_of_int (t.statements - b.statements))
  +. (2.0 *. float_of_int (t.light_statements - b.light_statements))
  +. (3.0 *. float_of_int (t.routed_statements - b.routed_statements))
  +. (1.0 *. float_of_int (t.bound_executes - b.bound_executes))
  +. (5.0 *. float_of_int (t.twopc_statements - b.twopc_statements))
  +. (1.5 *. float_of_int (t.copy_rows - b.copy_rows))
  +. (merge_row_weight *. float_of_int (t.merge_rows - b.merge_rows))

(* [x - 0 = x], so this is the float [units_since] gives for a diff *)
let total_cpu_units s = units_since s zero
