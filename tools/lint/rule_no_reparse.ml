(** L15 no-reparse: the statement route and the statement cache's hit
    path never touch the parser.

    Two roots. Every statement naming a Citus table — an [EXECUTE] with
    its stored shape, ad-hoc SQL as its statement-cache template or its
    one parse with the literals lifted — enters [Api.route], which
    reuses memoized per-group ASTs. Every SQL text an engine receives
    goes through its statement cache, whose hit path ([Stmt_cache.hit])
    serves the text as a template parsed once per skeleton plus the
    text's literals. If anything reachable from either
    root calls [Parser.parse*], the cache in question is silently paying
    the parse cost it exists to eliminate (and, worse, may diverge from
    the AST the plan or template was checked against). A forward
    reachability fixpoint over the call graph marks everything the roots
    can reach and flags every parser entry point inside the reachable
    set.

    The wire boundary is excluded by design. A cached route sends a
    bound execute ([Connection.exec_bound_async]): the values travel as
    [Datum]s and the worker binds a statement it parsed once per
    connection, from the Parse that rode with the first execute. Other
    statements go out as SQL text ([Connection.exec_ast] deparses) and
    the {e remote} engine parses them, like a Citus worker receiving
    text over libpq. Reachability therefore does not propagate through
    any call into [Connection]: what happens past the wire is the remote
    node's parse, not a coordinator re-parse.

    Escape hatch: [[\@lint.reparse]] on the call, asserting the parse
    is off the per-execute path (e.g. a lazily-built, cached artifact). *)

let id = "L15"
let name = "no-reparse"

let doc =
  "Parser.parse* must be unreachable from Api.route (the one statement \
   route, prepared and ad-hoc) and from Stmt_cache.hit (the statement \
   cache's hit path); remote re-parse past the Connection wire boundary \
   is by design (escape hatch: [@lint.reparse])"

let explain =
  "a statement is parsed once: an EXECUTE at PREPARE, ad-hoc SQL on \
   arrival, before its literals are lifted into a shape. Api.route then \
   serves both from the plan cache, which memoizes the tier decision \
   and the per-shard-group ASTs, so the hot path only binds parameters \
   and re-prunes the target shard. One Parser.parse* call reachable \
   from Api.route re-introduces a per-call parse the route exists to \
   avoid — a silent performance regression the benchmarks would catch \
   late and attribute wrongly — and risks executing an AST that \
   differs from the one the cached plan was validated against. The \
   same holds one step earlier: every SQL text an engine receives goes \
   through its statement cache, whose hit path (Stmt_cache.hit) serves \
   the text as a template parsed once per skeleton plus its literals, so a \
   parse reachable from it would undo the cache. L15 computes forward \
   reachability from both roots over the whole-program call graph, \
   cutting every edge into Connection (the wire boundary: \
   a cached route sends a bound execute that the worker binds into a \
   statement it parsed once per connection, and other statements go out \
   as text the remote engine parses, like a Citus worker over libpq), \
   and flags any reachable Parser.parse* site. Escape hatch: \
   [@lint.reparse] for parses provably off the per-statement path."

let applies _ = false
let check ~path:_ _ = []
let check_tree _ = []

let is_entry (fn : Callgraph.fn) =
  match fn.Callgraph.f_id with
  | { Callgraph.m = "Api"; v = "route" } | { m = "Stmt_cache"; v = "hit" } -> true
  | _ -> false

let is_parse comps =
  match List.rev comps with
  | last :: prev :: _ ->
    String.equal prev "Parser" && Rule.starts_with "parse" last
  | _ -> false

(* the wire boundary: a call into Connection ships a bound execute or
   deparsed SQL to the remote engine, whose parse is its own business,
   not a coordinator re-parse. Matched on the resolved target (local
   opens leave the written path bare), falling back to the written
   path. *)
let crosses_wire (s : Callgraph.site) =
  match s.Callgraph.s_target with
  | Some { Callgraph.m; _ } -> String.equal m "Connection"
  | None -> List.exists (String.equal "Connection") s.Callgraph.s_path

let escape_hatch = "lint.reparse"

let in_scope_file path =
  Rule.starts_with "lib/" path && not (Rule.starts_with "lib/sim/" path)

let check_program (files : (string * Parsetree.structure) list) =
  let g = Callgraph.build files in
  let reachable =
    Dataflow.solve g ~dir:Dataflow.Forward ~bottom:false ~equal:Bool.equal
      ~join:( || ) ~init:is_entry
      ~transfer:(fun ~site ~dep:_ fact -> fact && not (crosses_wire site))
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
              if
                is_parse s.Callgraph.s_path
                && not (List.mem escape_hatch s.Callgraph.s_attrs)
              then
                Some
                  (Rule.finding ~id ~file:fn.Callgraph.f_file
                     ~loc:s.Callgraph.s_loc
                     (Printf.sprintf
                        "%s is reachable from the statement route or the \
                         statement cache's hit path (via %s) — both must \
                         bind into a memoized AST, never re-parse; parse \
                         before them, or annotate [@lint.reparse] if it \
                         is provably off the per-statement path"
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
