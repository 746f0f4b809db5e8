(** L14 snapshot-discipline: fragment dispatches on the statement path
    must thread the session's snapshot token.

    The distributed-snapshot design (DESIGN.md §4h) hangs on one
    invariant: every fragment of a statement executes at the {e same}
    visibility — the per-statement snapshot token computed once in
    [Adaptive_executor.execute] from [citus.consistency]. A dispatch
    site that omits the token silently executes at latest visibility,
    and a multi-shard read becomes torn again exactly when the knob
    promises it cannot be.

    The rule marks everything reachable from [Adaptive_executor.execute]
    (forward fixpoint over the whole-program call graph, like L12) and
    requires every reachable call to a planned-fragment dispatch
    primitive — [Exec.ast_on_conn_exn] (SQL text),
    [Exec.bound_on_conn_exn] (a bound execute of a worker-side
    statement) and [Exec.local_exn] (local execution in the session's
    own transaction) — to pass a
    [~snapshot]/[?snapshot] argument. Passing [?snapshot:None] (a write,
    or eventual consistency) satisfies the rule: the point is that the
    site made a visibility decision, not that it always pins one.

    Escape hatch: [[\@lint.latest]] on the dispatch, asserting the
    statement is deliberately executed at latest visibility — 2PC
    resolution statements (COMMIT/ROLLBACK PREPARED fired by
    [Twopc.resolve_in_doubt]) are the canonical case: they are not
    reads, and stamping them with a reader's snapshot would be
    meaningless. *)

let id = "L14"
let name = "snapshot-discipline"

let doc =
  "Exec.ast_on_conn_exn / bound_on_conn_exn / local_exn reachable from \
   Adaptive_executor.execute must pass ?snapshot (escape hatch: \
   [@lint.latest])"

let explain =
  "citus.consistency = snapshot promises that every fragment of a \
   multi-shard read observes one cluster-wide HLC cut. That promise is \
   only as strong as its weakest dispatch: one fragment shipped without \
   the statement's snapshot token executes at latest visibility and can \
   observe a distributed transaction the other fragments do not — a \
   torn read, re-introduced silently by a refactor that forgets to \
   thread one argument. L14 computes forward reachability from \
   Adaptive_executor.execute over the whole-program call graph (like \
   L12) and requires every reachable call to a planned-fragment \
   dispatch primitive (Exec.ast_on_conn_exn, Exec.bound_on_conn_exn, \
   Exec.local_exn) to pass ?snapshot — passing None is fine, omitting \
   the argument is not. Escape hatch: [@lint.latest] on the dispatch, for statements \
   that deliberately execute at latest visibility (2PC resolution \
   statements such as COMMIT PREPARED are not reads and take no \
   snapshot)."

let applies _ = false
let check ~path:_ _ = []
let check_tree _ = []

let is_entry (fn : Callgraph.fn) =
  let { Callgraph.m; v } = fn.Callgraph.f_id in
  String.equal m "Adaptive_executor" && String.equal v "execute"

(* the planned-fragment dispatch primitives: over a connection as text
   or as a bound execute, or local execution; the string forms
   ([on_conn_exn]) carry control statements (BEGIN, SET), never planned
   fragments, so they are out of scope *)
let is_dispatch (fn_id : Callgraph.fn_id) =
  String.equal fn_id.Callgraph.m "Exec"
  && List.mem fn_id.Callgraph.v
       [ "ast_on_conn_exn"; "bound_on_conn_exn"; "local_exn" ]

let escape_hatch = "lint.latest"

let in_scope_file path =
  Rule.starts_with "lib/" path && not (Rule.starts_with "lib/sim/" path)

let check_program (files : (string * Parsetree.structure) list) =
  let g = Callgraph.build files in
  let reachable =
    Dataflow.solve g ~dir:Dataflow.Forward ~bottom:false ~equal:Bool.equal
      ~join:( || ) ~init:is_entry
      ~transfer:(fun ~site:_ ~dep:_ fact -> fact)
  in
  let findings =
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        if
          (not (in_scope_file fn.Callgraph.f_file))
          || not (is_entry fn || reachable fn.Callgraph.f_id)
        then []
        else
          List.filter_map
            (fun (s : Callgraph.site) ->
              let target_is_dispatch =
                match Callgraph.resolved g s with
                | Some tgt -> is_dispatch tgt
                | None -> false
              in
              if
                target_is_dispatch
                && (not (List.mem escape_hatch s.Callgraph.s_attrs))
                &&
                match s.Callgraph.s_kind with
                | Callgraph.Call { labels } ->
                  not (List.mem "snapshot" labels)
                | Callgraph.Value -> true
              then
                Some
                  (Rule.finding ~id ~file:fn.Callgraph.f_file
                     ~loc:s.Callgraph.s_loc
                     (Printf.sprintf
                        "%s dispatches a planned fragment on the statement \
                         path (via %s) without threading ?snapshot — the \
                         fragment executes at latest visibility and can \
                         tear a snapshot-consistent read; pass the \
                         statement's snapshot token (None is fine for \
                         writes), or annotate [@lint.latest] if the \
                         statement deliberately executes at latest \
                         visibility"
                        (String.concat "." s.Callgraph.s_path)
                        (Callgraph.id_str fn.Callgraph.f_id)))
              else None)
            fn.Callgraph.f_sites)
      g.Callgraph.fns
  in
  List.sort
    (fun (a : Rule.finding) b ->
      compare (a.file, a.line, a.col) (b.file, b.line, b.col))
    findings
