(* [citus_bench compare BASE.json... -- HEAD.json...]: per (workload,
   metric), each side's median and quartiles over its run files, and a
   verdict against the metric's bound. A side whose interquartile spread
   exceeds the bound leaves the metric unresolved. A per-layer metric has
   no bound: it reads "exact" when every run gave the same value. *)

let number = function Json.Num f -> Some f | _ -> None

(* (workload, metric) -> value, from one run file written by --json. *)
let load path =
  let j = Json.parse (Spec.read_file path) in
  let tbl = Hashtbl.create 256 in
  (match Json.get_field j "workloads" with
   | Some (Json.Obj ws) ->
     List.iter
       (fun (w, r) ->
         match Json.get_field r "metrics" with
         | Some (Json.Obj ms) ->
           List.iter
             (fun (m, v) ->
               match Option.bind (Json.get_field v "value") number with
               | Some f -> Hashtbl.replace tbl (w, m) f
               | None -> ())
             ms
         | _ -> ())
       ws
   | _ -> failwith (path ^ ": not a citus_bench run file"));
  tbl

let verdict (m : Spec.metric) base head =
  let q1b, medb, q3b = Stats.quartiles base in
  let q1h, medh, q3h = Stats.quartiles head in
  match m.Spec.bound with
  | None ->
    (* per-layer: counts should read "exact" for runs of one seed *)
    if List.for_all (fun v -> v = List.hd base) (base @ head) then "exact" else "varies"
  | Some bound ->
    let spread q1 q3 med = (q3 -. q1) /. Float.abs med in
    if spread q1b q3b medb > bound || spread q1h q3h medh > bound then "unresolved"
    else
      let rel = (medh -. medb) /. Float.abs medb in
      let gain = match m.Spec.better with Spec.Higher -> rel | Spec.Lower -> -.rel in
      if gain < -.bound then "worse"
      else if gain > bound then "better"
      else "unchanged"

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let base_files, head_files = split [] args in
  if base_files = [] || head_files = [] then begin
    prerr_endline "usage: citus_bench compare BASE.json... -- HEAD.json...";
    exit 2
  end;
  let base = List.map load base_files and head = List.map load head_files in
  let values side w m = List.filter_map (fun t -> Hashtbl.find_opt t (w, m)) side in
  let worse = ref 0 in
  Printf.printf "%-16s %-32s %12s %12s %12s %12s %12s %12s  %s\n" "workload" "metric"
    "base_q1" "base_med" "base_q3" "head_q1" "head_med" "head_q3" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match (values base w m.Spec.name, values head w m.Spec.name) with
          | [], _ | _, [] -> ()
          | b, h ->
            let v = verdict m b h in
            if v = "worse" then incr worse;
            let q1b, medb, q3b = Stats.quartiles b in
            let q1h, medh, q3h = Stats.quartiles h in
            Printf.printf "%-16s %-32s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s\n" w
              m.Spec.name q1b medb q3b q1h medh q3h v)
        Spec.all_metrics)
    Spec.workload_names;
  Printf.printf "worse: %d\n" !worse
