(** Whole-program call graph over a set of parsed [.ml] files.

    Nodes are top-level [let]-bound functions, identified by
    (module, value) where the module is the capitalized file basename
    (dune's mapping) or an inner [module M = struct .. end] name. Edges
    are resolved identifier references inside a function's body:

    - cross-module: [Cluster.Connection.await] resolves by the {e last}
      module component ([Connection]) plus the value name — the same
      convention the per-file rules use, unambiguous here because the
      tree has no duplicate basenames;
    - same-module: an unqualified [f] resolves against the enclosing
      module's own top-level names;
    - local opens: inside [Cluster.Connection.( ... )] or
      [let open M in ...], unqualified names additionally resolve
      against the opened module (innermost first), and a file-level
      [open M] extends that to the whole file;
    - higher-order uses are approximated conservatively: {e any}
      reference to a known function — applied or passed as a value —
      is an edge, so a function handed to [List.iter] keeps its callers
      on the hook for whatever it reaches;
    - [let]-bound aliases ([let f = Other.g]) are recorded and
      {!resolved} follows the chain.

    Each reference site also records the lexical facts the
    interprocedural rules need: whether a scheduler scope is in sight,
    whether suspension-propagation is stopped (the site sits under a
    [with_sched]/[Sched.run] handler or inside a nested [fun sched ->]
    closure), whether a bracket ([Fun.protect]) protects it, which
    [lint.*] attributes enclose it, and the innermost lambda it belongs
    to (evaluation of different lambdas is unordered).

    Soundness caveats (documented in DESIGN.md §4c): locally-bound
    functions are not nodes (their suspensions are attributed to the
    enclosing top-level function's sites); a local value shadowing a
    top-level name still resolves to the top-level function
    (over-approximation: extra edges); first-class function values
    stored in records/refs are invisible once they leave the defining
    expression; only named bindings at top level and in plain [struct]
    submodules are walked, so [let () =] / [let _ =] / tuple bindings,
    functor bodies and [module M : S = struct] are not seen. *)

type fn_id = { m : string; v : string }

let id_str { m; v } = m ^ "." ^ v

type kind =
  | Call of { labels : string list }
      (** head of an application; [labels] holds the names of the
          labelled / optional arguments passed ([~deadline],
          [?snapshot], …) so argument-threading rules can check any
          label without re-walking the AST *)
  | Value  (** alias target, higher-order argument, stored closure *)

type site = {
  s_path : string list;  (** the reference as written, e.g. ["Sim";"Sched";"await"] *)
  s_target : fn_id option;  (** resolution against the program's definitions *)
  s_kind : kind;
  s_loc : Location.t;
  s_in_scope : bool;
      (** L10 fiber discipline: under with_sched / Sched.run /
          Sched.spawn, a [fun sched ->], or in a function taking a
          [sched] parameter *)
  s_stopped : bool;
      (** suspension does not escape the enclosing function through this
          site: a with_sched/Sched.run handler is installed around it, or
          it sits in a nested [fun sched ->] closure whose invocation the
          graph cannot see *)
  s_protected : bool;
      (** inside a [Fun.protect] bracket or a cancellation barrier
          (with_sched / Sched.run: the calling frame is not a fiber) *)
  s_lam : int;  (** innermost lambda: sites in different lambdas are unordered *)
  s_attrs : string list;  (** [lint.*] attribute names in lexical scope *)
}

type fn = {
  f_id : fn_id;
  f_file : string;
  f_loc : Location.t;
  f_takes_sched : bool;  (** required leading parameter named [sched] *)
  f_opt_sched : bool;
      (** optional [?sched] leading parameter: dual-mode by construction
          (without a scheduler the function must not suspend) *)
  f_attrs : string list;  (** [lint.*] attributes on the binding *)
  f_alias : fn_id option;  (** body is a bare reference to another function *)
  f_sites : site list;  (** in source order *)
}

type t = {
  fns : fn list;  (** file order, then source order — deterministic *)
  index : (string * string, fn) Hashtbl.t;  (** multi-binding: find_all *)
}

(* --- small helpers --- *)

let module_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let binding_name (vb : Parsetree.value_binding) =
  match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_constraint
      ({ ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _) ->
    Some txt
  | _ -> None

let is_sched_pat (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ }
  | Parsetree.Ppat_constraint
      ({ ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _) ->
    String.equal txt "sched" || String.equal txt "_sched"
  | _ -> false

let is_sched_label = function
  | Asttypes.Labelled "sched" | Asttypes.Optional "sched" -> true
  | _ -> false

let lint_attrs (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      let n = a.Parsetree.attr_name.txt in
      if Rule.starts_with "lint." n then Some n else None)
    attrs

(* Applications whose lambda arguments run with a scheduler in hand
   (grant the L10 discipline), and those that additionally install the
   effect handler themselves (stop suspension propagation outward). *)
let grants_scope comps =
  match List.rev comps with
  | last :: rest -> (
    String.equal last "with_sched"
    ||
    match rest with
    | prev :: _ ->
      String.equal prev "Sched"
      && (String.equal last "run" || String.equal last "spawn")
    | [] -> false)
  | [] -> false

let installs_handler comps =
  match List.rev comps with
  | last :: rest -> (
    String.equal last "with_sched"
    ||
    match rest with
    | prev :: _ -> String.equal prev "Sched" && String.equal last "run"
    | [] -> false)
  | [] -> false

(* Brackets whose body runs with cleanup guaranteed ([Fun.protect]), and
   cancellation barriers: the frame calling [with_sched] / [Sched.run] is
   not itself a fiber, so [Cancelled] cannot be delivered to it. *)
let protects comps =
  match List.rev comps with
  | last :: rest ->
    String.equal last "protect"
    || String.equal last "with_sched"
    || (match rest with
        | prev :: _ -> String.equal prev "Sched" && String.equal last "run"
        | [] -> false)
  | [] -> false

let ident_comps (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } ->
    (try Longident.flatten txt with _ -> [])
  | _ -> []

(* --- pass 1: every (module, value) the program defines --- *)

let collect_defined files =
  let defined : (string * string, unit) Hashtbl.t = Hashtbl.create 512 in
  let rec collect mname (str : Parsetree.structure) =
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_name vb with
              | Some n -> Hashtbl.replace defined (mname, n) ()
              | None -> ())
            vbs
        | Parsetree.Pstr_module
            {
              pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Parsetree.Pmod_structure s; _ };
              _;
            } ->
          collect sub s
        | _ -> ())
      str
  in
  List.iter (fun (path, str) -> collect (module_of_path path) str) files;
  defined

(* --- pass 2: one fn record per top-level binding --- *)

type walk_ctx = {
  mutable in_scope : bool;
  mutable stopped : bool;
  mutable protected_ : bool;
  mutable lam : int;
  mutable attrs : string list;
  mutable opens : string list;  (** last components of locally-opened modules *)
}

let resolve defined ~cur_module ~opens comps =
  match comps with
  | [] -> None
  | [ n ] ->
    if Hashtbl.mem defined (cur_module, n) then Some { m = cur_module; v = n }
    else
      List.find_map
        (fun om ->
          if Hashtbl.mem defined (om, n) then Some { m = om; v = n } else None)
        opens
  | _ -> (
    let rec last2 = function
      | [ m; v ] -> (m, v)
      | _ :: rest -> last2 rest
      | [] -> assert false
    in
    let m, v = last2 comps in
    if Hashtbl.mem defined (m, v) then Some { m; v } else None)

let walk_binding defined ~file ~cur_module (vb : Parsetree.value_binding) :
    fn option =
  match binding_name vb with
  | None -> None
  | Some name ->
    let takes_sched = ref false in
    let opt_sched = ref false in
    (* strip the leading parameter chain: those lambdas are the
       function's own signature, not deferred closures *)
    let rec strip (e : Parsetree.expression) =
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_fun (lbl, _, pat, body) ->
        (match lbl with
         | Asttypes.Optional "sched" -> opt_sched := true
         | _ -> if is_sched_pat pat || is_sched_label lbl then takes_sched := true);
        strip body
      | Parsetree.Pexp_newtype (_, body) -> strip body
      | _ -> e
    in
    let body = strip vb.Parsetree.pvb_expr in
    let alias =
      match ident_comps body with
      | [] -> None
      | comps -> resolve defined ~cur_module ~opens:[] comps
    in
    let sites = ref [] in
    let next_lam = ref 0 in
    let ctx =
      {
        in_scope = !takes_sched;
        stopped = false;
        protected_ = false;
        lam = 0;
        attrs = [];
        opens = [];
      }
    in
    (* heads of applications already recorded as Call sites; their bare
       idents must not be double-counted as Value references *)
    let consumed : Parsetree.expression list ref = ref [] in
    let record (e : Parsetree.expression) ~kind comps =
      if comps <> [] then
        let last = List.nth comps (List.length comps - 1) in
        if String.length last > 0 && last.[0] >= 'a' && last.[0] <= 'z' then begin
          let target = resolve defined ~cur_module ~opens:ctx.opens comps in
          (* bare local names that resolve to nothing are just variables *)
          if target <> None || List.length comps > 1 then
            sites :=
              {
                s_path = comps;
                s_target = target;
                s_kind = kind;
                s_loc = e.Parsetree.pexp_loc;
                s_in_scope = ctx.in_scope;
                s_stopped = ctx.stopped;
                s_protected = ctx.protected_;
                s_lam = ctx.lam;
                s_attrs = ctx.attrs;
              }
              :: !sites
        end
    in
    let super = Ast_iterator.default_iterator in
    let expr it (e : Parsetree.expression) =
      let saved_scope = ctx.in_scope
      and saved_stop = ctx.stopped
      and saved_prot = ctx.protected_
      and saved_lam = ctx.lam
      and saved_attrs = ctx.attrs
      and saved_opens = ctx.opens in
      ctx.attrs <- lint_attrs e.Parsetree.pexp_attributes @ ctx.attrs;
      (match e.Parsetree.pexp_desc with
       | Parsetree.Pexp_ident _ when not (List.memq e !consumed) ->
         record e ~kind:Value (ident_comps e)
       | Parsetree.Pexp_apply (head, args) ->
         let comps = ident_comps head in
         if comps <> [] then begin
           consumed := head :: !consumed;
           let labels =
             List.filter_map
               (fun (lbl, _) ->
                 match lbl with
                 | Asttypes.Labelled l | Asttypes.Optional l -> Some l
                 | Asttypes.Nolabel -> None)
               args
           in
           record head ~kind:(Call { labels }) comps
         end;
         if grants_scope comps then ctx.in_scope <- true;
         if installs_handler comps then ctx.stopped <- true;
         if protects comps then ctx.protected_ <- true
       | Parsetree.Pexp_fun (lbl, _, pat, _) ->
         incr next_lam;
         ctx.lam <- !next_lam;
         if is_sched_pat pat || is_sched_label lbl then begin
           ctx.in_scope <- true;
           (* a nested closure demanding a scheduler: its suspensions do
              not escape through lexical position — only through calls
              the graph cannot attribute — so propagation stops here *)
           ctx.stopped <- true
         end
       | Parsetree.Pexp_open
           ( { popen_expr = { pmod_desc = Parsetree.Pmod_ident { txt; _ }; _ }; _ },
             _ ) ->
         (match try Longident.flatten txt with _ -> [] with
          | [] -> ()
          | comps ->
            ctx.opens <- List.nth comps (List.length comps - 1) :: ctx.opens)
       | _ -> ());
      super.Ast_iterator.expr it e;
      ctx.in_scope <- saved_scope;
      ctx.stopped <- saved_stop;
      ctx.protected_ <- saved_prot;
      ctx.lam <- saved_lam;
      ctx.attrs <- saved_attrs;
      ctx.opens <- saved_opens
    in
    let it = { super with Ast_iterator.expr } in
    it.Ast_iterator.expr it body;
    Some
      {
        f_id = { m = cur_module; v = name };
        f_file = file;
        f_loc = vb.Parsetree.pvb_loc;
        f_takes_sched = !takes_sched;
        f_opt_sched = !opt_sched;
        f_attrs = lint_attrs vb.Parsetree.pvb_attributes;
        f_alias = alias;
        f_sites = List.rev !sites;
      }

(* File-level [open M] statements widen unqualified resolution for every
   binding below them; handled by pre-scanning the structure. *)
let build (files : (string * Parsetree.structure) list) : t =
  let defined = collect_defined files in
  let fns = ref [] in
  let rec walk_str ~file ~cur_module (str : Parsetree.structure) =
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match walk_binding defined ~file ~cur_module vb with
              | Some fn -> fns := fn :: !fns
              | None -> ())
            vbs
        | Parsetree.Pstr_module
            {
              pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Parsetree.Pmod_structure s; _ };
              _;
            } ->
          walk_str ~file ~cur_module:sub s
        | _ -> ())
      str
  in
  List.iter
    (fun (path, str) -> walk_str ~file:path ~cur_module:(module_of_path path) str)
    files;
  let fns = List.rev !fns in
  let index = Hashtbl.create 512 in
  (* Hashtbl.add keeps multiple bindings of one id retrievable; reverse
     so find_all yields them in definition order *)
  List.iter (fun fn -> Hashtbl.add index (fn.f_id.m, fn.f_id.v) fn)
    (List.rev fns);
  { fns; index }

let find t (id : fn_id) = Hashtbl.find_all t.index (id.m, id.v)

(* Follow [let f = Other.g] chains (cycle-bounded). *)
let rec chase t fuel (id : fn_id) =
  if fuel = 0 then id
  else
    match find t id with
    | { f_alias = Some next; f_sites = [ _ ]; _ } :: _ ->
      (* a pure alias has exactly one site: the target reference *)
      chase t (fuel - 1) next
    | _ -> id

(** A site's target with [let]-bound aliases followed. *)
let resolved t (s : site) =
  match s.s_target with None -> None | Some id -> Some (chase t 8 id)

(** Call sites referencing [id] (directly or through an alias), with the
    referencing function — the reverse edge set. *)
let callers t (id : fn_id) =
  List.concat_map
    (fun fn ->
      List.filter_map
        (fun s ->
          match resolved t s with
          | Some tgt when tgt.m = id.m && tgt.v = id.v -> Some (fn, s)
          | _ -> None)
        fn.f_sites)
    t.fns
