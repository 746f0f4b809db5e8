(* The repository benchmark: four paper workloads timed at the client
   boundary, plus a traced per-layer breakdown.

     citus_bench [--seed N] [--seconds S] [--json OUT] [--trace-dir DIR]
         every workload, each in its own fresh subprocess, one after
         another; prints every metric as "workload metric value unit
         clock" and checks every result
     citus_bench --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last line of output is a JSON
         object with the end-to-end metrics (--trace 0) or the per-layer
         metrics (--trace 1)
     citus_bench --smoke
         every workload at about 1/100 size; checks that each reports
         BENCHMARK.json's metrics, finite, with no failed op
     citus_bench compare BASE.json... -- HEAD.json...
     citus_bench layers --workload W [--seed N]

   See README.md for the workloads, metrics and bounds. *)

type selection = End_to_end | Per_layer | All

let selected sel (r : Runner.result) =
  let names =
    List.map
      (fun (m : Spec.metric) -> m.Spec.name)
      (match sel with
       | End_to_end -> Spec.end_to_end
       | Per_layer -> Spec.per_layer
       | All -> Spec.all_metrics)
  in
  List.filter (fun (x : Runner.value) -> List.mem x.Runner.metric names) r.Runner.values

let unit_of name =
  (List.find (fun (m : Spec.metric) -> m.Spec.name = name) Spec.all_metrics).Spec.unit_

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_json (r : Runner.result) sel =
  let metrics =
    List.map
      (fun (x : Runner.value) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Runner.metric
          (json_number x.Runner.value) (unit_of x.Runner.metric))
      (selected sel r)
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.Runner.attempted r.Runner.failed
    (String.concat ", " metrics)

let print_metrics (r : Runner.result) sel =
  List.iter (fun n -> Printf.printf "%s %s\n" r.Runner.workload n) r.Runner.notes;
  List.iter
    (fun (x : Runner.value) ->
      Printf.printf "%s %s %.6g %s %s%s\n" r.Runner.workload x.Runner.metric x.Runner.value
        (unit_of x.Runner.metric) x.Runner.clock
        (match x.Runner.calls with Some n -> Printf.sprintf " calls=%d" n | None -> ""))
    (selected sel r)

let run_one w cfg ?trace_dir () =
  try Runner.run ?trace_dir w cfg
  with Runner.Wrong why ->
    Printf.printf "WRONG RESULT workload=%s seed=%d %s\n%!" w.Workload.name
      cfg.Runner.seed why;
    exit 1

(* --- every workload, each in a fresh subprocess --- *)

let suite ~seed ~seconds ~json ~trace_dir =
  let results =
    List.map
      (fun (w : Workload.t) ->
        let args =
          [ Sys.executable_name; "--workload"; w.Workload.name; "--seed";
            string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; "1"; "--metrics"; "all" ]
          @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             if String.length line > 0 && line.[0] = '{' then last := line
             else Printf.printf "%s\n%!" line
           done
         with End_of_file -> ());
        (match Unix.close_process_in ic with
         | Unix.WEXITED 0 -> ()
         | _ ->
           Printf.printf "%s: run failed\n" w.Workload.name;
           exit 1);
        (w.Workload.name, !last))
      Workload.all
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "{\"seed\": %d, \"seconds\": %g, \"workloads\": {\n%s\n}}\n" seed
        seconds
        (String.concat ",\n"
           (List.map (fun (n, j) -> Printf.sprintf "%S: %s" n j) results));
      close_out oc)
    json;
  print_endline
    (Printf.sprintf "{\"correct\": true, \"workloads\": %d}" (List.length results))

(* --- smoke: the whole benchmark at about 1/100 size --- *)

let smoke () =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let names = List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all in
  if names <> Spec.workload_names then
    err "workloads %s differ from BENCHMARK.json's %s" (String.concat "," names)
      (String.concat "," Spec.workload_names);
  List.iter
    (fun (w : Workload.t) ->
      let cfg =
        { Runner.seed = 1; seconds = 0.15; scale = 0.01; setups = 1; traced = true }
      in
      (* the run itself fails unless it reports exactly BENCHMARK.json's
         metrics *)
      let r = run_one w cfg () in
      let name = w.Workload.name in
      List.iter
        (fun (x : Runner.value) ->
          if not (Spec.valid_name x.Runner.metric) then
            err "%s: bad metric name %S" name x.Runner.metric;
          if not (Float.is_finite x.Runner.value) then
            err "%s: %s is not finite" name x.Runner.metric)
        r.Runner.values;
      if r.Runner.failed > 0 then err "%s: %d ops failed" name r.Runner.failed;
      if r.Runner.malformed > 0 then
        err "%s: %d traced ops without exactly one root span" name r.Runner.malformed)
    Workload.all;
  match List.rev !errors with
  | [] ->
    Printf.printf "smoke: ok (%d workloads x %d metrics)\n"
      (List.length Workload.all) (List.length Spec.all_metrics)
  | es ->
    List.iter (fun e -> prerr_endline ("smoke: " ^ e)) es;
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> Compare.main rest
  | _ :: "layers" :: rest -> Layers.main rest
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
    let trace = ref (-1) and metrics = ref "" and json = ref "" in
    let trace_dir = ref "" and smoke_mode = ref false in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
        ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)");
        ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 10)");
        ("--trace", Arg.Set_int trace, "0|1 also run the traced phase; select metrics");
        ("--metrics", Arg.Set_string metrics, "all report every metric (suite children)");
        ("--json", Arg.Set_string json, "OUT write the suite's results as JSON");
        ("--trace-dir", Arg.Set_string trace_dir, "DIR write trace_<workload>.jsonl spans");
        ("--smoke", Arg.Set smoke_mode, " every workload at about 1/100 size");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "citus_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] ...";
    let opt s = if s = "" then None else Some s in
    if !smoke_mode then smoke ()
    else if !workload = "" then
      suite ~seed:!seed ~seconds:!seconds ~json:(opt !json) ~trace_dir:(opt !trace_dir)
    else begin
      let w =
        match Workload.find !workload with
        | Some w -> w
        | None ->
          Printf.eprintf "unknown workload %s; known: %s\n" !workload
            (String.concat ", " Spec.workload_names);
          exit 2
      in
      let traced = !trace = 1 || !metrics = "all" in
      let sel =
        if !metrics = "all" then All else if traced then Per_layer else End_to_end
      in
      let cfg =
        { Runner.seed = !seed; seconds = !seconds; scale = 1.0; setups = 5; traced }
      in
      let r = run_one w cfg ?trace_dir:(opt !trace_dir) () in
      print_metrics r sel;
      print_endline (result_json r sel)
    end
