(* The benchmark's definition: its workloads and metrics, each metric
   with its unit, direction and (end-to-end only) regression bound. The
   one source is BENCHMARK.json at the repository root, compiled into
   [Benchmark_json] (see dune). *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let fail fmt = Printf.ksprintf (fun m -> failwith ("BENCHMARK.json: " ^ m)) fmt

let field j k =
  match Json.get_field j k with Some v -> v | None -> fail "missing key %S" k

let str j k = match field j k with Json.Str s -> s | _ -> fail "%S is not a string" k

let arr j k = match field j k with Json.Arr l -> l | _ -> fail "%S is not an array" k

let json = Json.parse Benchmark_json.text

let metrics key =
  List.map
    (fun e ->
      {
        name = str e "name";
        unit_ = str e "unit";
        better =
          (match str e "better" with
           | "higher" -> Higher
           | "lower" -> Lower
           | b -> fail "better %S" b);
        bound =
          (match Json.get_field e "bound" with
           | Some (Json.Num b) -> Some b
           | None -> None
           | Some _ -> fail "bound of %s is not a number" (str e "name"));
      })
    (arr json key)

let end_to_end = metrics "end_to_end"

let per_layer = metrics "per_layer"

let all_metrics = end_to_end @ per_layer

let workload_names = List.map (fun w -> str w "name") (arr json "workloads")

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
