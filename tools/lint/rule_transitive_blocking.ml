(** L10 transitive-blocking: the fiber-context discipline for every
    suspending call, direct or derived.

    The scheduler's suspending primitives ([Sim.Sched.await] /
    [await_result] / [await_any] / [join_all] / [sleep] / [sleep_until] /
    [wait] / [timed_wait] / [yield]) and the deadline-aware
    [Cluster.Connection.await] must be called from code that is lexically
    inside a scheduler scope — a [State.with_sched] / [Sim.Sched.run]
    body, a [Sim.Sched.spawn] thunk, or a function that receives the
    scheduler as a [sched] parameter (a function taking [?sched] may use
    the primitives themselves, but not call derived-suspending
    functions without a scope). The rule propagates the fact
    through the call graph ({!Suspend.facts}): a function that
    transitively reaches a primitive is itself suspending, and every
    reference to it — call or higher-order use — must satisfy the same
    discipline. A direct primitive use is the zero-depth case.

    The escape hatch is [[\@lint.blocking]] on the site or the binding:
    a deliberate dual-mode boundary (e.g. [Exec.on_conn_exn], which
    also serves setup and maintenance code that runs without a
    scheduler). *)

let id = "L10"
let name = "transitive-blocking"

let doc =
  "suspending primitives (Sim.Sched await / sleep / wait / yield …, \
   Connection.await) and functions that transitively reach them must \
   run inside a with_sched / Sched.run / Sched.spawn scope or a function \
   taking a [sched] parameter (escape hatch: [@lint.blocking])"

let explain =
  "Outside a scheduler scope the Sched primitives perform effects no \
   handler catches — a crash at runtime — and a bare Connection.await \
   silently degrades to a serializing clock advance: it waits out the \
   very stall the deadline/hedging machinery exists to escape, \
   invisible to cancellation. A function that calls Sched.await three \
   frames down suspends its caller's fiber exactly as hard as a direct \
   await, so a backward fixpoint over the whole-program call graph \
   marks every function that reaches a suspending primitive (await / \
   await_result / await_any / join_all / sleep / sleep_until / wait / \
   timed_wait / yield / Connection.await) without an intervening \
   handler (with_sched / Sched.run) or dual-mode boundary. Every direct \
   use of a primitive and every reference to a marked function — \
   including passing it as a value — must sit lexically inside a \
   with_sched / Sched.run body, a Sched.spawn thunk, or a function that \
   receives the scheduler as a [sched] parameter; a function taking \
   ?sched may also use the primitives directly. Escape hatch: \
   [@lint.blocking] on the site or the callee's binding, reserved for \
   boundaries that are dual-mode by design and degrade to a clock \
   advance when no scheduler is running. Functions taking ?sched are \
   treated as dual-mode by construction."

(* per-file/per-tree hooks unused: this is a whole-program rule *)
let applies _ = false
let check ~path:_ _ = []
let check_tree _ = []

let in_scope_file path =
  Rule.starts_with "lib/" path && not (Rule.starts_with "lib/sim/" path)

let check_program (files : (string * Parsetree.structure) list) =
  let g = Callgraph.build files in
  let fact = Suspend.facts g in
  let findings =
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        if
          (not (in_scope_file fn.Callgraph.f_file))
          (* a binding marked [@@lint.blocking] IS the dual-mode
             boundary: its body may reach suspending functions *)
          || List.mem "lint.blocking" fn.Callgraph.f_attrs
        then []
        else
          List.filter_map
            (fun (s : Callgraph.site) ->
              let report how =
                Some
                  (Rule.finding ~id ~file:fn.Callgraph.f_file
                     ~loc:s.Callgraph.s_loc
                     (Printf.sprintf
                        "%s %s but no scheduler scope is in sight here; run \
                         it under with_sched / Sched.run / Sched.spawn, take \
                         a [sched] parameter, or annotate a deliberate \
                         dual-mode boundary with [@lint.blocking]"
                        (String.concat "." s.Callgraph.s_path)
                        how))
              in
              if s.Callgraph.s_in_scope || Suspend.site_blocking_ok s then None
              else if Suspend.site_is_prim g s then
                (* a [?sched] function's own primitive uses sit under
                   its [Some sched] match; calls it makes to derived
                   suspending functions are still checked below *)
                if fn.Callgraph.f_opt_sched then None
                else report "suspends a fiber"
              else
                match Callgraph.resolved g s with
                | Some tgt when fact tgt ->
                  report
                    (Printf.sprintf "transitively suspends (%s)"
                       (Suspend.witness g fact tgt))
                | _ -> None)
            fn.Callgraph.f_sites)
      g.Callgraph.fns
  in
  List.sort
    (fun (a : Rule.finding) b ->
      compare (a.file, a.line, a.col) (b.file, b.line, b.col))
    findings
