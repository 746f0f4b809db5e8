(** Shared suspension analysis: which functions can park the calling
    fiber on the cooperative scheduler?

    The ground truth is the set of suspending primitives ([Sched.await],
    [sleep], [wait], … and [Connection.await]); everything else is
    derived by a backward fixpoint over the call graph: a function is
    suspending iff it contains a live suspending site — a primitive, or
    a call to a suspending function — whose suspension escapes the
    function:

    - a [with_sched] / [Sched.run] application installs the effect
      handler itself, so suspension inside its arguments never reaches
      this function's caller ([s_stopped]);
    - a nested [fun sched -> ...] closure suspends whoever eventually
      runs it, not the function that builds it ([s_stopped] as well —
      the invocation edge, if visible, carries the fact instead);
    - an explicit [[\@lint.blocking]] on the site or the binding marks a
      deliberate dual-mode boundary (degrades to clock-advance without a
      scheduler) and is trusted, exactly as L10 trusts it at call sites;
    - a function taking [?sched] is dual-mode by construction and never
      propagates the fact to callers;
    - [lib/sim] is the scheduler's own implementation: opaque — only
      its exported primitives count, never its internals. *)

let suspending_prims =
  [ "await"; "await_result"; "await_any"; "join_all"; "sleep"; "sleep_until";
    "wait"; "timed_wait"; "yield" ]

(* Match on the last two components: [Sim.Sched.await], [Sched.await],
   and [Cluster.Connection.await] all qualify. *)
let path_is_prim comps =
  match List.rev comps with
  | last :: prev :: _ ->
    (String.equal prev "Sched" && List.mem last suspending_prims)
    || (String.equal prev "Connection" && String.equal last "await")
  | _ -> false

(** Is this site a direct use of a suspending primitive? Checked on the
    raw path {e and} on the resolved target, so an unqualified [await]
    inside connection.ml itself (resolving to [Connection.await]) counts
    the same as the qualified form a caller writes. *)
let site_is_prim (g : Callgraph.t) (s : Callgraph.site) =
  path_is_prim s.Callgraph.s_path
  ||
  match Callgraph.resolved g s with
  | Some { Callgraph.m; v } -> path_is_prim [ m; v ]
  | None -> false

let in_sim (fn : Callgraph.fn) =
  Rule.starts_with "lib/sim/" fn.Callgraph.f_file

let dual_mode (fn : Callgraph.fn) =
  fn.Callgraph.f_opt_sched
  || List.mem "lint.blocking" fn.Callgraph.f_attrs

let site_blocking_ok (s : Callgraph.site) =
  List.mem "lint.blocking" s.Callgraph.s_attrs

(** [facts g] — the suspension fact per function id, via backward
    fixpoint. The result is memoized inside the returned closure. *)
let facts (g : Callgraph.t) : Callgraph.fn_id -> bool =
  let raw =
    Dataflow.solve g ~dir:Dataflow.Backward ~bottom:false ~equal:Bool.equal
      ~join:( || )
      ~init:(fun fn ->
        (not (in_sim fn))
        && (not (dual_mode fn))
        && List.exists
             (fun (s : Callgraph.site) ->
               site_is_prim g s
               && (not s.Callgraph.s_stopped)
               && not (site_blocking_ok s))
             fn.Callgraph.f_sites)
      ~transfer:(fun ~site ~dep fact ->
        if
          site.Callgraph.s_stopped
          || site_blocking_ok site
          || in_sim dep || dual_mode dep
          (* calls into the primitives are counted by [init], not as
             edges — Sched.run etc. are not suspending *)
          || site_is_prim g site
        then false
        else fact)
  in
  fun id ->
    (* a dual-mode or sim-internal function never exports the fact,
       whatever its body reaches *)
    match Callgraph.find g id with
    | [] -> false
    | fns -> raw id && not (List.exists (fun f -> in_sim f || dual_mode f) fns)

(** A short witness path "f -> g -> Sched.await" from [id] down to a
    suspending primitive, for finding messages. Breadth-first so the
    shortest chain wins; deterministic because sites are in source
    order. *)
let witness (g : Callgraph.t) (fact : Callgraph.fn_id -> bool)
    (id : Callgraph.fn_id) : string =
  let seen : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let q = Queue.create () in
  Queue.push (id, [ Callgraph.id_str id ]) q;
  let result = ref (Callgraph.id_str id) in
  (try
     while not (Queue.is_empty q) do
       let cur, path = Queue.pop q in
       let k = (cur.Callgraph.m, cur.Callgraph.v) in
       if not (Hashtbl.mem seen k) then begin
         Hashtbl.replace seen k ();
         List.iter
           (fun (fn : Callgraph.fn) ->
             List.iter
               (fun (s : Callgraph.site) ->
                 if
                   (not s.Callgraph.s_stopped) && not (site_blocking_ok s)
                 then
                   if site_is_prim g s then begin
                     result :=
                       String.concat " -> "
                         (List.rev
                            (String.concat "." s.Callgraph.s_path :: path));
                     raise Exit
                   end
                   else
                     match Callgraph.resolved g s with
                     | Some tgt when fact tgt ->
                       Queue.push
                         (tgt, Callgraph.id_str tgt :: path)
                         q
                     | _ -> ())
               fn.Callgraph.f_sites)
           (Callgraph.find g cur)
       end
     done
   with Exit -> ());
  !result
