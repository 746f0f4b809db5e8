let samples : Printexc.raw_backtrace list ref = ref []

let on_sigprof _ = samples := Printexc.get_callstack 96 :: !samples

let set_timer seconds =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = seconds; it_value = seconds })

(* one sample per millisecond of CPU time *)
let start () =
  samples := [];
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  set_timer 0.001

let stop () =
  set_timer 0.0;
  (* a signal already pending must not take the default action (exit) *)
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let count () = List.length !samples

let is_stdlib name = String.starts_with ~prefix:"Stdlib" name

(* Innermost first, without the handler's own frames. *)
let frames bt =
  let names =
    match Printexc.backtrace_slots bt with
    | None -> []
    | Some slots -> List.filter_map Printexc.Slot.name (Array.to_list slots)
  in
  let rec drop_handler = function
    | n :: rest when String.starts_with ~prefix:"Sampler" n -> drop_handler rest
    | l -> l
  in
  drop_handler names

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let print_table oc ~title ~total tbl =
  Printf.fprintf oc "\n%s (%d samples)\n" title total;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
  |> List.iteri (fun i (k, n) ->
         if i < 25 then
           Printf.fprintf oc "  %6.2f%%  %7d  %s\n"
             (100.0 *. float_of_int n /. float_of_int (max 1 total)) n k)

(* [Citus__Adaptive_executor.execute.(fun)] -> [Citus__Adaptive_executor] *)
let module_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let report oc =
  let self = Hashtbl.create 256
  and inclusive = Hashtbl.create 256
  and callers = Hashtbl.create 64
  and modules = Hashtbl.create 64 in
  let total = ref 0 in
  List.iter
    (fun bt ->
      match frames bt with
      | [] -> ()
      | inner :: _ as stack ->
        incr total;
        bump self inner;
        bump modules
          (Option.fold ~none:"<stdlib>" ~some:module_of
             (List.find_opt (fun n -> not (is_stdlib n)) stack));
        List.iter (bump inclusive) (List.sort_uniq String.compare stack);
        if is_stdlib inner then
          let caller =
            Option.value ~default:"<none>"
              (List.find_opt (fun n -> not (is_stdlib n)) stack)
          in
          bump callers (Printf.sprintf "%s  <-  %s" inner caller))
    !samples;
  let total = !total in
  print_table oc ~title:"self" ~total self;
  print_table oc ~title:"self by module (first non-stdlib frame)" ~total modules;
  print_table oc ~title:"inclusive" ~total inclusive;
  print_table oc ~title:"stdlib function <- caller" ~total callers
