(* Metrics registry: named counters, gauges and histograms, plus
   registered probes that fold externally-maintained counter sets (the
   engine meters, the cluster network stats) into every snapshot.

   Everything is deterministic: snapshots sort by name, and no ambient
   time or randomness is consulted — timestamps, where needed, are
   supplied by the caller from the virtual clock. Histograms keep every
   observation, unboxed in a growable [Float.Array], so summaries are
   exact; the cost is 8 bytes per observation for the life of the
   registry. *)

(* Names are interned once per process: a key's [id] indexes every
   registry's arrays, so an update is an array read, never a string
   hash. *)
type key = { id : int; name : string }

let interned : (string, key) Hashtbl.t = Hashtbl.create 128

let key name =
  match Hashtbl.find_opt interned name with
  | Some k -> k
  | None ->
    let k = { id = Hashtbl.length interned; name } in
    Hashtbl.add interned name k;
    k

let key_name k = k.name

type counter = { c_name : string; mutable count : int }

type gauge = { g_name : string; mutable level : float }

(* [obs.(0 .. n-1)] are the observations in arrival order. *)
type hist = { h_name : string; mutable obs : Float.Array.t; mutable n : int }

(* One kind of series, by key id: [absent] (tested with [==]) marks a
   key this registry never touched. *)
type 'a table = { mutable slots : 'a array; absent : 'a }

type t = {
  counters : counter table;
  gauges : gauge table;
  histograms : hist table;
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

let table absent = { slots = Array.make 64 absent; absent }

let create () =
  {
    counters = table { c_name = ""; count = 0 };
    gauges = table { g_name = ""; level = 0.0 };
    histograms = table { h_name = ""; obs = Float.Array.create 0; n = 0 };
    probes = [];
  }

let find tb k =
  if k.id < Array.length tb.slots then Array.unsafe_get tb.slots k.id else tb.absent

(* The series at [k], made on first use; a key interned after the
   registry was made lies past the end, so the array grows. *)
let series tb k make =
  let x = find tb k in
  if x != tb.absent then x
  else begin
    let n = Array.length tb.slots in
    if k.id >= n then begin
      let a = Array.make (max (k.id + 1) (2 * n)) tb.absent in
      Array.blit tb.slots 0 a 0 n;
      tb.slots <- a
    end;
    let x = make k.name in
    tb.slots.(k.id) <- x;
    x
  end

let inc ?(by = 1) t k =
  let c = series t.counters k (fun c_name -> { c_name; count = 0 }) in
  c.count <- c.count + by

let counter_value t k = (find t.counters k).count

let gauge t k = series t.gauges k (fun g_name -> { g_name; level = 0.0 })

let gauge_add t k v =
  let g = gauge t k in
  g.level <- g.level +. v

let gauge_set t k v = (gauge t k).level <- v

let gauge_value t k = (find t.gauges k).level

let observe t k v =
  let h =
    series t.histograms k (fun h_name -> { h_name; obs = Float.Array.create 64; n = 0 })
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

(* [f series] for every series [tb] holds *)
let present tb f =
  Array.fold_right (fun x acc -> if x == tb.absent then acc else f x :: acc) tb.slots []

let snapshot t =
  let by_name (a, _) (b, _) = String.compare a b in
  let direct = present t.counters (fun c -> (c.c_name, c.count)) in
  let probed =
    List.concat_map
      (fun (prefix, f) ->
        List.map (fun (k, v) -> (prefix ^ "." ^ k, v)) (f ()))
      t.probes
  in
  {
    s_counters = List.sort by_name (direct @ probed);
    s_gauges =
      List.sort by_name (present t.gauges (fun g -> (g.g_name, g.level)));
    s_histograms =
      List.sort by_name (present t.histograms (fun h -> (h.h_name, summarize h)));
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
