type verdict =
  | Deliver
  | Unreachable of string
  | Drop_request of string
  | Drop_reply of string

type armed = { matching : string; lose_reply : bool }

type event =
  | Ev_crash of { node : string; down_for : float option }
  | Ev_restart of string
  | Ev_partition of { from_ : string; to_ : string; heal_after : float option }
  | Ev_heal of { from_ : string; to_ : string }
  | Ev_stall of { node : string; extra : float; duration : float }
  | Ev_skew of { node : string; offset : float; drift : float }

type t = {
  fault_seed : int;
  rng : Random.State.t;
  lat_rng : Random.State.t;
      (** latency draws live on their own stream so turning injection on
          or off never shifts the crash/drop verdict stream *)
  susp_rng : Random.State.t;  (** suspension-hazard draws, ditto *)
  clock : Clock.t;
  nodes : (string, Engine.Instance.t) Hashtbl.t;
  down : (string, unit) Hashtbl.t;
  cut_links : (string * string, unit) Hashtbl.t;  (** directed (from, to) *)
  drop : (string, float * float) Hashtbl.t;  (** per-destination override *)
  mutable default_drop : float * float;  (** (request, reply) *)
  latency : (string, float * float) Hashtbl.t;
      (** per-destination (mean, jitter) round-trip latency override *)
  mutable default_latency : float * float;  (** (mean, jitter) *)
  stalls : (string, float * float) Hashtbl.t;
      (** node -> (stalled until, extra seconds per round trip) *)
  skews : (string, float * float * float) Hashtbl.t;
      (** node -> (offset, drift, since): the node's physical clock reads
          [now + offset + drift * (now - since)] *)
  mutable susp_hazard : float * float;  (** (probability, micro-stall) *)
  armed : (string, armed) Hashtbl.t;
  mutable pending : (float * int * event) list;  (** sorted by (time, seq) *)
  mutable next_seq : int;
  mutable crash_obs : (string -> unit) list;
  mutable events : string list;  (** trace, newest first *)
}

let create ?(seed = 0) ~clock () =
  {
    fault_seed = seed;
    rng = Random.State.make [| 0x5eed; seed |];
    lat_rng = Random.State.make [| 0x1a7e; seed |];
    susp_rng = Random.State.make [| 0x5105; seed |];
    clock;
    nodes = Hashtbl.create 8;
    down = Hashtbl.create 4;
    cut_links = Hashtbl.create 8;
    drop = Hashtbl.create 4;
    default_drop = (0.0, 0.0);
    latency = Hashtbl.create 4;
    default_latency = (0.0, 0.0);
    stalls = Hashtbl.create 4;
    skews = Hashtbl.create 4;
    susp_hazard = (0.0, 0.0);
    armed = Hashtbl.create 4;
    pending = [];
    next_seq = 0;
    crash_obs = [];
    events = [];
  }


let note t fmt =
  Printf.ksprintf
    (fun m ->
      t.events <- Printf.sprintf "%8.3f %s" (Clock.now t.clock) m :: t.events)
    fmt

let trace t = List.rev t.events

let register_node t ~name inst = Hashtbl.replace t.nodes name inst

let node_up t name = not (Hashtbl.mem t.down name)

let on_crash t f = t.crash_obs <- t.crash_obs @ [ f ]

let crash_now t name =
  if node_up t name then begin
    Hashtbl.replace t.down name ();
    (match Hashtbl.find_opt t.nodes name with
     | Some inst -> Engine.Instance.crash inst
     | None -> ());
    note t "crash %s" name;
    List.iter (fun f -> f name) t.crash_obs
  end

let restart_now t name =
  if not (node_up t name) then begin
    Hashtbl.remove t.down name;
    (match Hashtbl.find_opt t.nodes name with
     | Some inst -> Engine.Instance.recover_from_wal inst
     | None -> ());
    note t "restart %s (wal replayed)" name
  end

let partition_link t ~from_ ~to_ =
  if not (Hashtbl.mem t.cut_links (from_, to_)) then begin
    Hashtbl.replace t.cut_links (from_, to_) ();
    note t "partition %s->%s" from_ to_
  end

let heal_link t ~from_ ~to_ =
  if Hashtbl.mem t.cut_links (from_, to_) then begin
    Hashtbl.remove t.cut_links (from_, to_);
    note t "heal %s->%s" from_ to_
  end

let link_up t ~from_ ~to_ =
  not
    (Hashtbl.mem t.cut_links (from_, to_)
    || Hashtbl.mem t.cut_links (from_, "*")
    || Hashtbl.mem t.cut_links ("*", to_))

let heal_all_links t =
  if Hashtbl.length t.cut_links > 0 then begin
    Hashtbl.reset t.cut_links;
    note t "heal all links"
  end

let set_drop_rate ?node t ~request ~reply =
  (match node with
   | Some n -> Hashtbl.replace t.drop n (request, reply)
   | None -> t.default_drop <- (request, reply));
  note t "drop-rate %s req=%.2f reply=%.2f"
    (Option.value ~default:"*" node)
    request reply

(* --- gray failures: latency, stalls, suspension hazard --- *)

let set_latency ?node t ~mean ~jitter =
  (match node with
   | Some n -> Hashtbl.replace t.latency n (mean, jitter)
   | None -> t.default_latency <- (mean, jitter));
  note t "latency %s mean=%.3f jitter=%.3f"
    (Option.value ~default:"*" node)
    mean jitter

let stall_now t ~node ~extra ~until_ =
  Hashtbl.replace t.stalls node (until_, extra);
  note t "stall %s +%.3fs/rt until %.3f" node extra until_

let stall_node t ~node ~extra ~duration =
  stall_now t ~node ~extra ~until_:(Clock.now t.clock +. duration)

let stalled_extra t node =
  match Hashtbl.find_opt t.stalls node with
  | Some (until_, extra) when Clock.now t.clock < until_ -> extra
  | _ -> 0.0

let node_stalled t node = stalled_extra t node > 0.0

(* --- clock skew --- *)

let set_clock_skew t ~node ~offset ~drift =
  Hashtbl.replace t.skews node (offset, drift, Clock.now t.clock);
  note t "clock-skew %s offset=%+.3fs drift=%+.6f" node offset drift

let node_skew t node =
  match Hashtbl.find_opt t.skews node with
  | Some (offset, drift, since) ->
    offset +. (drift *. (Clock.now t.clock -. since))
  | None -> 0.0

let skewed_now t node = Clock.now t.clock +. node_skew t node

let set_suspension_hazard t ~p ~stall =
  t.susp_hazard <- (p, stall);
  note t "suspension hazard p=%.3f stall=%.3fs" p stall

let at_suspension t ~node =
  (* Always burn exactly one draw so the hazard stream depends only on
     the sequence of suspension points, never on the configuration. *)
  let u = Random.State.float t.susp_rng 1.0 in
  let p, d = t.susp_hazard in
  if p > 0.0 && u < p then begin
    note t "suspension stall %s +%.3fs" node d;
    d
  end
  else 0.0

let round_trip_latency t ~to_ =
  (* One draw, always burnt, for the same stream-stability reason. *)
  let u = Random.State.float t.lat_rng 1.0 in
  let mean, jitter =
    match Hashtbl.find_opt t.latency to_ with
    | Some l -> l
    | None -> t.default_latency
  in
  let base = mean +. (jitter *. ((2.0 *. u) -. 1.0)) in
  let base = if base < 0.0 then 0.0 else base in
  base +. stalled_extra t to_

let arm_crash_after t ~node ~matching ?(lose_reply = false) () =
  Hashtbl.replace t.armed node { matching; lose_reply };
  note t "arm crash-after %s matching %S%s" node matching
    (if lose_reply then " (reply lost)" else "")

(* --- scheduled events --- *)

let enqueue t ~at ev =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.pending <-
    List.sort
      (fun (ta, sa, _) (tb, sb, _) -> compare (ta, sa) (tb, sb))
      ((at, seq, ev) :: t.pending)

let schedule_crash t ~at ?down_for node =
  enqueue t ~at (Ev_crash { node; down_for })

let schedule_partition ?heal_after t ~at ~from_ ~to_ =
  enqueue t ~at (Ev_partition { from_; to_; heal_after })

let schedule_stall t ~at ~extra ~duration node =
  enqueue t ~at (Ev_stall { node; extra; duration })

let schedule_skew t ~at ~offset ~drift node =
  enqueue t ~at (Ev_skew { node; offset; drift })

let fire t at = function
  | Ev_crash { node; down_for } ->
    crash_now t node;
    (match down_for with
     | Some d -> enqueue t ~at:(at +. d) (Ev_restart node)
     | None -> ())
  | Ev_restart node -> restart_now t node
  | Ev_partition { from_; to_; heal_after } ->
    partition_link t ~from_ ~to_;
    (match heal_after with
     | Some d -> enqueue t ~at:(at +. d) (Ev_heal { from_; to_ })
     | None -> ())
  | Ev_heal { from_; to_ } -> heal_link t ~from_ ~to_
  | Ev_stall { node; extra; duration } ->
    stall_now t ~node ~extra ~until_:(at +. duration)
  | Ev_skew { node; offset; drift } -> set_clock_skew t ~node ~offset ~drift

let rec tick t =
  match t.pending with
  | (at, _, ev) :: rest when at <= Clock.now t.clock ->
    t.pending <- rest;
    fire t at ev;
    tick t
  | _ -> ()

(* --- consultation --- *)

let check_connect t ~from_ ~to_ =
  if not (node_up t to_) then
    Unreachable (Printf.sprintf "node %s is down" to_)
  else if not (link_up t ~from_ ~to_) then
    Unreachable (Printf.sprintf "network partition %s->%s" from_ to_)
  else if not (link_up t ~from_:to_ ~to_:from_) then
    Unreachable (Printf.sprintf "network partition %s->%s" to_ from_)
  else Deliver

let drop_rates t node =
  match Hashtbl.find_opt t.drop node with
  | Some r -> r
  | None -> t.default_drop

let check_round_trip t ~from_ ~to_ ~sql =
  ignore sql;
  (* Always burn exactly two draws so the random stream does not depend
     on which faults happen to be active. *)
  let r_req = Random.State.float t.rng 1.0 in
  let r_reply = Random.State.float t.rng 1.0 in
  let req_rate, reply_rate = drop_rates t to_ in
  if not (node_up t to_) then
    Unreachable (Printf.sprintf "node %s is down" to_)
  else if not (link_up t ~from_ ~to_) then
    Drop_request (Printf.sprintf "network partition %s->%s" from_ to_)
  else if r_req < req_rate then begin
    note t "drop request %s->%s" from_ to_;
    Drop_request (Printf.sprintf "request %s->%s lost" from_ to_)
  end
  else if not (link_up t ~from_:to_ ~to_:from_) then
    Drop_reply (Printf.sprintf "network partition %s->%s" to_ from_)
  else if r_reply < reply_rate then begin
    note t "drop reply %s->%s" to_ from_;
    Drop_reply (Printf.sprintf "reply %s->%s lost" to_ from_)
  end
  else Deliver

let contains_substring s sub =
  let ls = String.length s and lsub = String.length sub in
  lsub = 0
  ||
  let rec at i =
    i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1))
  in
  at 0

let after_statement t ~node ~sql =
  match Hashtbl.find_opt t.armed node with
  | Some { matching; lose_reply } when contains_substring sql matching ->
    Hashtbl.remove t.armed node;
    note t "armed crash fires on %s after %S" node matching;
    crash_now t node;
    `Crashed lose_reply
  | _ -> `Proceed

let quiesce t =
  t.pending <- [];
  heal_all_links t;
  t.default_drop <- (0.0, 0.0);
  Hashtbl.reset t.drop;
  t.default_latency <- (0.0, 0.0);
  Hashtbl.reset t.latency;
  Hashtbl.reset t.stalls;
  Hashtbl.reset t.skews;
  t.susp_hazard <- (0.0, 0.0);
  Hashtbl.reset t.armed;
  let downed = Hashtbl.fold (fun n () acc -> n :: acc) t.down [] in
  List.iter (restart_now t) (List.sort compare downed);
  note t "quiesce"
