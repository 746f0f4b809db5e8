type breaker = Closed | Open | Half_open

let breaker_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type node_stats = {
  mutable consecutive_failures : int;
  mutable failures : int;
  mutable successes : int;
  mutable failed_commits : int;
  mutable ignored_errors : int;
  mutable slow_events : int;
  mutable consecutive_slow : int;
  mutable breaker : breaker;
  mutable opened_at : float;
  mutable backoff : float;
}

type t = {
  clock : Sim.Clock.t;
  nodes : (string, node_stats) Hashtbl.t;
  metrics : Obs.Metrics.t option;
  mutable failure_threshold : int;
  mutable slow_threshold : int;
  mutable base_backoff : float;
  mutable max_backoff : float;
}

let create ?(failure_threshold = 3) ?(slow_threshold = 3) ?(base_backoff = 1.0)
    ?(max_backoff = 30.0) ?metrics ~clock () =
  {
    clock;
    nodes = Hashtbl.create 8;
    metrics;
    failure_threshold;
    slow_threshold;
    base_backoff;
    max_backoff;
  }

(* Breaker transition accounting: counters per edge of the state
   machine, plus a gauge of currently-tripped breakers (Half_open still
   counts as tripped — only a successful probe closes it). The chaos
   invariants check the gauge returns to zero and never goes negative. *)
let note_transition t ~from_ ~to_ =
  match t.metrics with
  | None -> ()
  | Some m ->
    if from_ <> to_ then begin
      Obs.Metrics.inc m
        (Obs.Metric_names.breaker_transition ~from_:(breaker_name from_)
           ~to_:(breaker_name to_));
      (match from_, to_ with
       | Closed, (Open | Half_open) -> Obs.Metrics.gauge_add m Obs.Metric_names.breaker_tripped 1.0
       | (Open | Half_open), Closed -> Obs.Metrics.gauge_add m Obs.Metric_names.breaker_tripped (-1.0)
       | _ -> ())
    end

let stats t node =
  match Hashtbl.find_opt t.nodes node with
  | Some s -> s
  | None ->
    let s =
      {
        consecutive_failures = 0;
        failures = 0;
        successes = 0;
        failed_commits = 0;
        ignored_errors = 0;
        slow_events = 0;
        consecutive_slow = 0;
        breaker = Closed;
        opened_at = 0.0;
        backoff = t.base_backoff;
      }
    in
    Hashtbl.replace t.nodes node s;
    s

(* Resolve the time-dependent part of the state machine: an Open breaker
   becomes Half_open once its backoff has elapsed, letting one probe
   through. *)
let breaker_state t node =
  let s = stats t node in
  (match s.breaker with
   | Open when Sim.Clock.now t.clock -. s.opened_at >= s.backoff ->
     s.breaker <- Half_open;
     note_transition t ~from_:Open ~to_:Half_open
   | _ -> ());
  s.breaker

let record_success t node =
  let s = stats t node in
  s.successes <- s.successes + 1;
  s.consecutive_failures <- 0;
  s.consecutive_slow <- 0;
  note_transition t ~from_:s.breaker ~to_:Closed;
  s.breaker <- Closed;
  s.backoff <- t.base_backoff

let record_failure t node =
  let s = stats t node in
  s.failures <- s.failures + 1;
  s.consecutive_failures <- s.consecutive_failures + 1;
  match breaker_state t node with
  | Half_open ->
    (* the probe failed: re-open with a doubled backoff *)
    s.breaker <- Open;
    s.opened_at <- Sim.Clock.now t.clock;
    s.backoff <- Float.min t.max_backoff (s.backoff *. 2.0);
    note_transition t ~from_:Half_open ~to_:Open
  | Closed when s.consecutive_failures >= t.failure_threshold ->
    s.breaker <- Open;
    s.opened_at <- Sim.Clock.now t.clock;
    note_transition t ~from_:Closed ~to_:Open
  | _ -> ()

(* Gray failure: the node answered, just far too late (a statement
   deadline expired against it). Distinct from [record_failure] in every
   consequence that matters: it never counts as a hard failure — so
   failover logic keyed on [consecutive_failures] / placement-marking
   never treats the node as dead — but enough consecutive slow events
   still trip the breaker [Open], shedding load until the backoff gives
   the node a chance to catch up. *)
let record_slow t node =
  let s = stats t node in
  s.slow_events <- s.slow_events + 1;
  s.consecutive_slow <- s.consecutive_slow + 1;
  (match t.metrics with
   | Some m -> Obs.Metrics.inc m Obs.Metric_names.health_slow_events
   | None -> ());
  match breaker_state t node with
  | Half_open ->
    s.breaker <- Open;
    s.opened_at <- Sim.Clock.now t.clock;
    s.backoff <- Float.min t.max_backoff (s.backoff *. 2.0);
    note_transition t ~from_:Half_open ~to_:Open;
    (match t.metrics with
     | Some m -> Obs.Metrics.inc m Obs.Metric_names.breaker_tripped_slow
     | None -> ())
  | Closed when s.consecutive_slow >= t.slow_threshold ->
    s.breaker <- Open;
    s.opened_at <- Sim.Clock.now t.clock;
    note_transition t ~from_:Closed ~to_:Open;
    (match t.metrics with
     | Some m -> Obs.Metrics.inc m Obs.Metric_names.breaker_tripped_slow
     | None -> ())
  | _ -> ()

let slow_events t node = (stats t node).slow_events

let record_failed_commit t node =
  let s = stats t node in
  s.failed_commits <- s.failed_commits + 1

let failed_commits t node = (stats t node).failed_commits

(* Best-effort cleanup (ROLLBACK on a node already failing) deliberately
   tolerates errors, but never silently: the count keeps swallowed
   exceptions visible to monitoring and tests. *)
let record_ignored t node =
  let s = stats t node in
  s.ignored_errors <- s.ignored_errors + 1

let available t node = breaker_state t node <> Open

let retry_backoff t node = (stats t node).backoff

type node_report = {
  nr_node : string;
  nr_breaker : breaker;
  nr_consecutive_failures : int;
  nr_failures : int;
  nr_successes : int;
  nr_failed_commits : int;
  nr_ignored_errors : int;
  nr_slow_events : int;
}

let report t =
  Hashtbl.fold
    (fun node s acc ->
      {
        nr_node = node;
        nr_breaker = breaker_state t node;
        nr_consecutive_failures = s.consecutive_failures;
        nr_failures = s.failures;
        nr_successes = s.successes;
        nr_failed_commits = s.failed_commits;
        nr_ignored_errors = s.ignored_errors;
        nr_slow_events = s.slow_events;
      }
      :: acc)
    t.nodes []
  |> List.sort (fun a b -> String.compare a.nr_node b.nr_node)
