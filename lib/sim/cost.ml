type node_spec = { cores : int; iops : float; cpu_unit : float }

(* 20 µs per abstract CPU unit puts a planned single-row statement at
   ~0.5 ms of CPU — the right ballpark for PostgreSQL with parsing,
   planning and executor overhead included. *)
let default_spec = { cores = 16; iops = 7500.0; cpu_unit = 20.0e-6 }

let default_rtt = 0.0005

let connection_setup_cost = 0.005

type node_demand = { cpu_s : float; io_s : float }

let zero_demand = { cpu_s = 0.0; io_s = 0.0 }

let demand ~spec ~cpu_units ~misses =
  { cpu_s = cpu_units *. spec.cpu_unit; io_s = float_of_int misses /. spec.iops }

let demand_of ~spec ~meter ~misses =
  demand ~spec ~cpu_units:(Engine.Meter.total_cpu_units meter) ~misses

let solo_elapsed ~spec ~parallelism demand =
  let p = float_of_int (max 1 (min parallelism spec.cores)) in
  Float.max (demand.cpu_s /. p) demand.io_s

type center = { demand_s : float; servers : float }

type closed_result = {
  throughput : float;
  response_s : float;
  bottleneck : int option;
}

let closed_throughput ~clients ~think_s ~delay_s ~centers =
  let r0 =
    delay_s +. List.fold_left (fun acc c -> acc +. c.demand_s) 0.0 centers
  in
  let n = float_of_int clients in
  let demand_bound =
    List.mapi (fun i c -> (i, if c.demand_s > 0.0 then c.servers /. c.demand_s else infinity)) centers
  in
  let client_bound = if r0 +. think_s > 0.0 then n /. (r0 +. think_s) else infinity in
  let (bottleneck_i, min_center) =
    List.fold_left
      (fun (bi, bv) (i, v) -> if v < bv then (Some i, v) else (bi, bv))
      (None, infinity) demand_bound
  in
  let x = Float.min client_bound min_center in
  let saturated = min_center < client_bound in
  let response = if saturated then Float.max r0 ((n /. x) -. think_s) else r0 in
  {
    throughput = x;
    response_s = response;
    bottleneck = (if saturated then bottleneck_i else None);
  }
