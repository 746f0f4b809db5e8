(* [citus_bench layers --workload W [--seed N]]: the cache-hot cost of
   each traced layer call. A short traced run captures every idempotent
   layer call with its inputs from the workload; Bechamel then fits
   ns/call and minor words/call by OLS (with r²) over those inputs,
   printed beside the call's median inside the workload. *)

open Bechamel
open Toolkit

let per_layer_inputs = 64

let main args =
  let workload = ref "ycsb_a_adhoc" and seed = ref 1 in
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list ("layers" :: args))
    [
      ("--workload", Arg.Set_string workload, "NAME workload whose inputs are captured");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "citus_bench layers --workload NAME [--seed N]";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ !workload)
  in
  let cfg =
    { Runner.seed = !seed; seconds = 0.0; scale = 1.0; setups = 1; traced = true }
  in
  let l, _, _ = Runner.set_up w cfg in
  let inputs = Hashtbl.create 32 and order = ref [] in
  let capture name f =
    let l = match Hashtbl.find_opt inputs name with
      | Some l -> l
      | None -> order := name :: !order; []
    in
    if List.length l < per_layer_inputs then Hashtbl.replace inputs name (f :: l)
  in
  let t = Runner.new_tracing ~capture l in
  let deadline = Stats.now_ns () + 2_000_000_000 in
  let i = ref 0 in
  while !i < 12 || (!i < 400 && Stats.now_ns () < deadline) do
    incr i;
    Runner.trace_op t ~op_index:!i
  done;
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let bcfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Printf.printf "%s seed %d: cache-hot cost per layer call (Bechamel OLS)\n" w.Workload.name
    !seed;
  Printf.printf "%-24s %12s %8s %12s %14s %8s\n" "layer" "ns/call" "r2" "words/call"
    "in-run p50 ns" "inputs";
  List.iter
    (fun name ->
      let thunks = Array.of_list (Hashtbl.find inputs name) in
      let k = ref 0 in
      let test =
        Test.make ~name
          (Staged.stage (fun () ->
               incr k;
               thunks.(!k mod Array.length thunks) ()))
      in
      let raw = Benchmark.all bcfg instances test in
      let fit instance =
        (* one test, so one analysed entry *)
        Hashtbl.fold
          (fun _ o _ ->
            ( (match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> nan),
              Option.value ~default:nan (Analyze.OLS.r_square o) ))
          (Analyze.all ols instance raw) (nan, nan)
      in
      let ns, r2 = fit Instance.monotonic_clock in
      let words, _ = fit Instance.minor_allocated in
      let median, _ = Tracer.median_ns t.Runner.tr name in
      Printf.printf "%-24s %12.0f %8.4f %12.1f %14.0f %8d\n%!" name ns r2 words median
        (Array.length thunks))
    (List.rev !order)
