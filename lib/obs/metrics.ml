(* Metrics registry: named counters, gauges and histograms, plus
   registered probes that fold externally-maintained counter sets (the
   engine meters, the cluster network stats) into every snapshot.

   Everything is deterministic: snapshots sort by name, and no ambient
   time or randomness is consulted — timestamps, where needed, are
   supplied by the caller from the virtual clock. Histograms keep every
   observation, unboxed in a growable [Float.Array], so summaries are
   exact; the cost is 8 bytes per observation for the life of the
   registry. *)

(* [obs.(0 .. n-1)] are the observations in arrival order. *)
type hist = { mutable obs : Float.Array.t; mutable n : int }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  mutable probes : (string * (unit -> (string * int) list)) list;
}

type hist_summary = {
  count : int;
  sum : float;
  p50 : float;
  p95 : float;
  max : float;
}

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * hist_summary) list;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    probes = [];
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let inc ?(by = 1) t name =
  let r = counter t name in
  r := !r + by

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.replace t.gauges name r;
      r

let gauge_add t name v =
  let r = gauge t name in
  r := !r +. v

let gauge_set t name v =
  let r = gauge t name in
  r := v

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0.0

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = { obs = Float.Array.create 64; n = 0 } in
        Hashtbl.replace t.histograms name h;
        h
  in
  if h.n = Float.Array.length h.obs then begin
    let obs = Float.Array.create (2 * h.n) in
    Float.Array.blit h.obs 0 obs 0 h.n;
    h.obs <- obs
  end;
  Float.Array.unsafe_set h.obs h.n v;
  h.n <- h.n + 1

(* [f] is called at snapshot time; its counters appear under
   "<prefix>.<key>". Lets the engine meter and the topology net stats
   keep their compact representations while still showing up in
   [citus_stat_counters()]. *)
let register_probe t prefix f = t.probes <- (prefix, f) :: t.probes

let percentile sorted n p =
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    let idx = max 0 (min (n - 1) idx) in
    Float.Array.get sorted idx

let summarize h =
  let n = h.n in
  (* sorted from newest first, so values that compare equal but print
     apart (0.0 and -0.0) keep the order summaries have always given
     them: summaries stay bit-identical across versions *)
  let arr = Float.Array.init n (fun i -> Float.Array.get h.obs (n - 1 - i)) in
  Float.Array.sort compare arr;
  {
    count = n;
    sum = Float.Array.fold_left ( +. ) 0.0 arr;
    p50 = percentile arr n 0.50;
    p95 = percentile arr n 0.95;
    max = (if n = 0 then 0.0 else Float.Array.get arr (n - 1));
  }

let snapshot t =
  let by_name (a, _) (b, _) = String.compare a b in
  let direct =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  in
  let probed =
    List.concat_map
      (fun (prefix, f) ->
        List.map (fun (k, v) -> (prefix ^ "." ^ k, v)) (f ()))
      t.probes
  in
  {
    s_counters = List.sort by_name (direct @ probed);
    s_gauges =
      List.sort by_name
        (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauges []);
    s_histograms =
      List.sort by_name
        (Hashtbl.fold
           (fun name h acc -> (name, summarize h) :: acc)
           t.histograms []);
  }

let render snap =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" name v))
    snap.s_counters;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "%s %.6f\n" name v))
    snap.s_gauges;
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf "%s count=%d sum=%.6f p50=%.6f p95=%.6f max=%.6f\n"
           name s.count s.sum s.p50 s.p95 s.max))
    snap.s_histograms;
  Buffer.contents b
