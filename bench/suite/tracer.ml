(* Bench-side spans, recorded around calls into each layer's public
   functions. Spans stay in memory and are written as JSON lines when
   the run ends; per-name duration and allocation samples feed the
   per-layer medians. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  op : int;  (** index of the sampled op in the traced phase *)
  name : string;
  start_ns : int;
  dur_ns : int;
  minor_words : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  origin_ns : int;
  durations : (string, Stats.buf) Hashtbl.t;
  words : (string, Stats.buf) Hashtbl.t;
}

let create () =
  {
    spans = [];
    next_id = 1;
    origin_ns = Stats.now_ns ();
    durations = Hashtbl.create 64;
    words = Hashtbl.create 64;
  }

let samples tbl name =
  match Hashtbl.find_opt tbl name with
  | Some b -> b
  | None ->
    let b = Stats.buf () in
    Hashtbl.replace tbl name b;
    b

(* Record a derived sample (self time, residual) under [name]. *)
let record t name v = Stats.push (samples t.durations name) v

let store t ~id ~parent ~op name ~t0 ~dur ~words =
  t.spans <-
    { id; parent; op; name; start_ns = t0 - t.origin_ns; dur_ns = dur;
      minor_words = words }
    :: t.spans;
  Stats.push (samples t.durations name) (float_of_int dur);
  Stats.push (samples t.words name) words

(* [span t ~parent ~op name f] runs [f id] inside a span; returns
   [f]'s result and the span's duration in ns. The span is recorded even
   when [f] raises. Nothing between the two clock readings allocates
   except [f]. *)
let span t ~parent ~op name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let w0 = Gc.minor_words () in
  let t0 = Stats.now_ns () in
  match f id with
  | r ->
    let dur = Stats.now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    store t ~id ~parent ~op name ~t0 ~dur ~words;
    (r, dur)
  | exception e ->
    let dur = Stats.now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    store t ~id ~parent ~op name ~t0 ~dur ~words;
    raise e

let median_ns t name =
  match Hashtbl.find_opt t.durations name with
  | Some b when Stats.count b > 0 -> (Stats.buf_median b, Stats.count b)
  | _ -> (nan, 0)

let median_words t name =
  match Hashtbl.find_opt t.words name with
  | Some b when Stats.count b > 0 -> (Stats.buf_median b, Stats.count b)
  | _ -> (nan, 0)

(* Ops whose spans do not form exactly one tree under one root. *)
let malformed_ops t =
  let roots = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent = 0 then
        Hashtbl.replace roots s.op
          (1 + Option.value ~default:0 (Hashtbl.find_opt roots s.op)))
    t.spans;
  let ops = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace ops s.op ()) t.spans;
  Hashtbl.fold
    (fun op () acc ->
      if Hashtbl.find_opt roots op = Some 1 then acc else op :: acc)
    ops []

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%s,\"op\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d,\"minor_words\":%.0f}\n"
        s.id
        (if s.parent = 0 then "null" else string_of_int s.parent)
        s.op s.name s.start_ns s.dur_ns s.minor_words)
    (List.rev t.spans);
  close_out oc
