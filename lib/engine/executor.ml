open Sqlfront

type ctx = {
  catalog : Catalog.t;
  mgr : Txn.Manager.t;
  pool : Storage.Buffer_pool.t;
  meter : Meter.t;
  snapshot : Txn.Snapshot.t;
  xid : int option;
  vis : (int -> Txn.Manager.status) option;
  now : float;
  rng : Random.State.t;
  params : Datum.t array;
}

type result = {
  columns : string list;
  rows : Datum.t array list;
  affected : int;
  tag : string;
}

exception Exec_error of string

exception Would_block of int list

let err fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

let status ctx =
  match ctx.vis with Some f -> f | None -> Txn.Manager.status ctx.mgr

(* Locks belong to transactions. Reads outside any transaction (internal
   snapshot scans) skip table locks entirely: with MVCC they are safe, and
   there would be no owner to release the lock. *)
let acquire_lock ctx target mode =
  match ctx.xid with
  | None -> ()
  | Some owner ->
    (match Txn.Lock.acquire (Txn.Manager.locks ctx.mgr) ~owner target mode with
     | Txn.Lock.Granted -> ()
     | Txn.Lock.Blocked holders -> raise (Would_block holders))

(* What a plan is built against: the catalog, and how its compiled
   expressions read an execution. A subquery is planned when the
   expression holding it is compiled. *)
type planning = { cat : Catalog.t; rt : ctx Expr_eval.runtime }

let compile p schema e = Expr_eval.compile schema p.rt e

let find_table p name =
  match Catalog.find_table_opt p.cat name with
  | Some t -> t
  | None -> err "relation %s does not exist" name

(* --- schemas --- *)

let table_schema ~alias (table : Catalog.table) : Expr_eval.schema =
  let q = Some (Option.value ~default:table.tbl_name alias) in
  List.map
    (fun (c : Ast.column_def) -> { Expr_eval.rq = q; rname = c.col_name })
    table.columns

let expr_resolvable (schema : Expr_eval.schema) (e : Ast.expr) : bool =
  try
    Ast.fold_expr
      (fun () n ->
        match n with
        | Ast.Column (q, name) -> ignore (Expr_eval.resolve schema q name)
        | _ -> ())
      () e;
    true
  with Expr_eval.Eval_error _ -> false

(* An expression that references no column (a planning-time constant
   once its [$k] are known): [Some] of its value at run time, [None]
   where evaluation fails. [None] if it does reference columns. *)
let run_const p (e : Ast.expr) : (ctx -> Datum.t option) option =
  if not (expr_resolvable [] e) then None
  else
    match compile p [] e with
    | f ->
      Some
        (fun ctx ->
          match f ctx [||] with
          | v -> Some v
          | exception Expr_eval.Eval_error _ -> None)
    | exception Expr_eval.Eval_error _ -> Some (fun _ -> None)

(* --- access paths --- *)

type 'v access_path =
  | Seq
  | Btree_eq of Storage.Btree.t * 'v  (** equality on a key prefix *)
  | Gin_candidates of Storage.Gin.t * string  (** the LIKE pattern *)

(* A WHERE conjunct [col = rhs] whose [rhs] references no column. *)
type binding = {
  b_col : string;
  b_ty : Datum.ty;
  b_quoted : bool;  (** [rhs] is a quoted constant or a [$k] *)
  b_value : ctx -> Datum.t array -> Datum.t;  (** [rhs], compiled *)
}

let equality_bindings p (table : Catalog.table) schema conjuncts =
  let binding name rhs =
    if not (expr_resolvable [] rhs) then None
    else
      let b_value =
        match compile p [] rhs with
        | f -> f
        | exception Expr_eval.Eval_error _ -> fun _ _ -> Datum.Null
      in
      Some
        {
          b_col = name;
          b_ty = (Catalog.column_tys table).(Catalog.column_index table name);
          b_quoted = (match rhs with Ast.Const (Datum.Text _) | Ast.Param _ -> true | _ -> false);
          b_value;
        }
  in
  List.filter_map
    (fun conj ->
      match conj with
      | Ast.Cmp (Ast.Eq, Ast.Column (q, name), rhs)
        when expr_resolvable schema (Ast.Column (q, name)) ->
        binding name rhs
      | Ast.Cmp (Ast.Eq, lhs, Ast.Column (q, name))
        when expr_resolvable schema (Ast.Column (q, name)) ->
        binding name lhs
      | _ -> None)
    conjuncts

(* What [b] binds its column to in this execution: NULL (or an
   evaluation error) binds nothing, and a quoted constant or a [$k]
   holding text probes as the comparison reads it. *)
let binding_value ctx b =
  match b.b_value ctx [||] with
  | Datum.Text _ as lit when b.b_quoted -> Expr_eval.read_quoted b.b_ty lit
  | v -> v
  | exception Expr_eval.Eval_error _ -> Datum.Null

(* Longest index key prefix covered by equality bindings. *)
let btree_prefix bindings columns =
  let rec go acc = function
    | [] -> List.rev acc
    | col :: rest ->
      (match List.assoc_opt col bindings with
       | Some v -> go (v :: acc) rest
       | None -> List.rev acc)
  in
  go [] columns

(* LIKE conjuncts a trigram index can serve, as (subject, pattern). *)
let gin_patterns conjuncts =
  List.filter_map
    (function
      | Ast.Like { subject; pattern = Ast.Const (Datum.Text p); negated = false; _ } ->
        (* [%] breaks words in the query trigrams, so each segment is
           trigrammed alone; [_], or no 3-byte segment, means a seq scan *)
        let segments = String.split_on_char '%' p in
        if String.contains p '_' || List.for_all (fun g -> String.length g < 3) segments then None
        else Some (subject, p)
      | _ -> None)
    conjuncts

(* --- index operations: with index creation and [Ddl.definition_of],
   the only code that looks at an index's kind --- *)

(* The path [idx] offers: a B-tree the longest key prefix [bindings]
   cover, a GIN the first of [patterns] on its expression. *)
let index_path bindings patterns (idx : Catalog.index) =
  match idx.kind with
  | Catalog.Btree_index { columns; tree } ->
    (match btree_prefix bindings columns with
     | [] -> None
     | prefix -> Some (Btree_eq (tree, prefix)))
  | Catalog.Gin_index { expr; gin } ->
    List.find_map
      (fun (subject, p) -> if subject = expr then Some (Gin_candidates (gin, p)) else None)
      patterns

(* The B-tree on exactly the primary key's columns. *)
let pk_tree (table : Catalog.table) =
  List.find_map
    (fun (idx : Catalog.index) ->
      match idx.kind with
      | Catalog.Btree_index { columns; tree } when columns = table.primary_key -> Some tree
      | _ -> None)
    table.indexes

let index_adder p (table : Catalog.table) indexes =
  let per_index =
    List.map
      (fun (idx : Catalog.index) ->
        match idx.kind with
        | Catalog.Btree_index { columns; tree } ->
          let cols = Array.of_list (List.map (Catalog.column_index table) columns) in
          fun ctx tid (row : Datum.t array) ->
            (* index maintenance reads the pages it modifies *)
            Storage.Btree.insert ~pool:ctx.pool tree (Array.map (Array.get row) cols) tid;
            Meter.add_index_update ctx.meter 1
        | Catalog.Gin_index { expr; gin } ->
          let key = compile p (table_schema ~alias:None table) expr in
          fun ctx tid row ->
            (match key ctx row with
             | Datum.Null -> ()
             | v ->
               Meter.add_index_update ctx.meter
                 (Storage.Gin.add ~pool:ctx.pool gin ~tid (Datum.to_display v))))
      indexes
  in
  fun ctx tid row -> List.iter (fun add -> add ctx tid row) per_index

let index_bulk_delete meter pool dead (idx : Catalog.index) =
  Meter.add_index_update meter
    (match idx.kind with
     | Catalog.Btree_index { tree; _ } -> Storage.Btree.bulk_delete tree dead
     | Catalog.Gin_index { gin; _ } -> Storage.Gin.bulk_delete ~pool gin dead)

let index_cleanup pool (idx : Catalog.index) =
  match idx.kind with
  | Catalog.Btree_index _ -> ()
  | Catalog.Gin_index { gin; _ } -> Storage.Gin.cleanup ~pool gin

let index_clear (idx : Catalog.index) =
  match idx.kind with
  | Catalog.Btree_index { tree; _ } -> Storage.Btree.clear tree
  | Catalog.Gin_index { gin; _ } -> Storage.Gin.clear gin

(* The index path binding the longest B-tree key prefix (the first
   index on ties), else the first GIN path, else a seq scan. *)
let choose_access_path (table : Catalog.table) bindings patterns =
  let rank = function
    | Seq -> 0
    | Gin_candidates _ -> 1
    | Btree_eq (_, prefix) -> 1 + List.length prefix
  in
  List.fold_left
    (fun best idx ->
      match index_path bindings patterns idx with
      | Some path when rank path > rank best -> path
      | _ -> best)
    Seq table.indexes

(* --- base table scans --- *)

(* Columns of [table] referenced anywhere in the statement, for columnar
   projection pushdown. *)
let referenced_columns (table : Catalog.table) schema exprs =
  let cols = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Ast.fold_expr
        (fun () n ->
          match n with
          | Ast.Column (q, name) ->
            (match Expr_eval.resolve schema q name with
             | i -> Hashtbl.replace cols i ()
             | exception Expr_eval.Eval_error _ -> ())
          | _ -> ())
        () e)
    exprs;
  match Hashtbl.length cols with
  | 0 -> [ 0 ] (* COUNT-star scans still need stripe row counts *)
  | _ -> List.sort Int.compare (Hashtbl.fold (fun i () acc -> i :: acc) cols [])
  |> fun l -> if l = [] then List.init (List.length table.columns) Fun.id else l

(* One execution's heap scan along [path]. *)
let scan_heap ctx heap path =
  let fetch tid =
    Meter.add_scanned ctx.meter 1;
    match
      Storage.Heap.fetch ~pool:ctx.pool heap ~tid ~status:(status ctx)
        ~snapshot:ctx.snapshot ~my_xid:ctx.xid
    with
    | Some row -> Some (Some tid, row)
    | None -> None
  in
  let seq () =
    let out = ref [] in
    Storage.Heap.scan ~pool:ctx.pool heap ~status:(status ctx)
      ~snapshot:ctx.snapshot ~my_xid:ctx.xid ~f:(fun tid row ->
        Meter.add_scanned ctx.meter 1;
        out := (Some tid, row) :: !out);
    List.rev !out
  in
  match path with
  | Btree_eq (tree, key) ->
    Meter.add_probe ctx.meter 1;
    List.filter_map (fun (_k, tid) -> fetch tid) (Storage.Btree.prefix ~pool:ctx.pool tree key)
  | Gin_candidates (gin, pattern) ->
    Meter.add_probe ctx.meter 1;
    (match Storage.Gin.candidates ~pool:ctx.pool gin pattern with
     | Some tids -> List.filter_map fetch tids
     | None -> seq () (* pattern too short *))
  | Seq -> seq ()

(* A planned heap scan: the path chosen when the plan was built, and
   this execution's binding values (NULL where one binds nothing). *)
type heap_scan = {
  table : Catalog.table;
  heap : Storage.Heap.t;
  bindings : binding array;
  values : Datum.t array;
  patterns : (Ast.expr * string) list;
  path : Datum.t array access_path;  (** [Btree_eq]'s key is refilled per execution *)
  wanted : int array;  (** the bindings [path]'s key reads, in key order *)
}

let run_heap_scan s ctx =
  acquire_lock ctx (Txn.Lock.Table s.table.tbl_name) Txn.Lock.Access_share;
  Array.iteri (fun i b -> s.values.(i) <- binding_value ctx b) s.bindings;
  if Array.for_all (fun i -> not (Datum.is_null s.values.(i))) s.wanted then begin
    (match s.path with
     | Btree_eq (_, key) -> Array.iteri (fun j i -> key.(j) <- s.values.(i)) s.wanted
     | Gin_candidates _ | Seq -> ());
    scan_heap ctx s.heap s.path
  end
  else
    let present =
      List.filter_map
        (fun (b, v) -> if Datum.is_null v then None else Some (b.b_col, v))
        (List.combine (Array.to_list s.bindings) (Array.to_list s.values))
    in
    scan_heap ctx s.heap
      (match choose_access_path s.table present s.patterns with
       | Btree_eq (tree, prefix) -> Btree_eq (tree, Array.of_list prefix)
       | (Gin_candidates _ | Seq) as path -> path)

(* Plan a scan of a base table with pushed-down conjuncts. Its rows come
   paired with their heap tid (None for columnar). The residual filter
   is NOT applied here; the caller compiles the full predicate.

   The access path is chosen here, for [$k] too: a generic plan. A
   binding read per execution is taken to be there; when one turns out
   NULL (or fails to evaluate), the execution chooses again from the
   bindings it has, as a plan built from the bound statement would. *)
let plan_scan p (table : Catalog.table) ~alias ~conjuncts ~all_exprs :
    ctx -> (int option * Datum.t array) list =
  let schema = table_schema ~alias table in
  let lock ctx = acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Access_share in
  match table.store with
  | Catalog.Columnar_store col ->
    let columns = referenced_columns table schema all_exprs in
    (* stripe skipping from range conjuncts on a single column *)
    let checks =
      List.filter_map
        (fun conj ->
          match conj with
          | Ast.Cmp (op, Ast.Column (q, name), rhs) ->
            Option.map
              (fun value ->
                let pos =
                  match Expr_eval.resolve schema q name with
                  | i -> Some i
                  | exception Expr_eval.Eval_error _ -> None
                in
                (op, value, pos))
              (run_const p rhs)
          | _ -> None)
        conjuncts
    in
    fun ctx ->
      lock ctx;
      let out = ref [] in
      let stripe_predicate ~mins ~maxs =
        List.for_all
          (fun (op, value, pos) ->
            match value ctx, pos with
            | Some v, Some i when not (Datum.is_null v) ->
              let mn = mins.(i) and mx = maxs.(i) in
              if Datum.is_null mn || Datum.is_null mx then true
              else
                (match op with
                 | Ast.Eq -> Datum.compare v mn >= 0 && Datum.compare v mx <= 0
                 | Ast.Lt | Ast.Le -> Datum.compare mn v <= 0
                 | Ast.Gt | Ast.Ge -> Datum.compare mx v >= 0
                 | Ast.Ne -> true)
            | _ -> true)
          checks
      in
      Storage.Columnar.scan ~pool:ctx.pool ~stripe_predicate col
        ~status:(status ctx) ~snapshot:ctx.snapshot ~my_xid:ctx.xid ~columns
        ~f:(fun row ->
          Meter.add_scanned ctx.meter 1;
          out := (None, row) :: !out);
      List.rev !out
  | Catalog.Heap_store heap ->
    let bindings = Array.of_list (equality_bindings p table schema conjuncts) in
    let patterns = gin_patterns conjuncts in
    (* chosen now, taking every binding to be there *)
    let path, wanted =
      match
        choose_access_path table
          (List.mapi (fun i b -> (b.b_col, i)) (Array.to_list bindings))
          patterns
      with
      | Btree_eq (tree, wanted) ->
        let wanted = Array.of_list wanted in
        (Btree_eq (tree, Array.make (Array.length wanted) Datum.Null), wanted)
      | (Gin_candidates _ | Seq) as path -> (path, [||])
    in
    run_heap_scan
      { table; heap; bindings; values = Array.make (Array.length bindings) Datum.Null;
        patterns; path; wanted }

(* --- SELECT pipeline --- *)

(* A GROUP BY / ORDER BY item that is an ordinal ([GROUP BY 1]) or a
   projection alias stands for that projection's expression. *)
let substitute_refs projections e =
  let e =
    match e with
    | Ast.Const (Datum.Int k) when k >= 1 ->
      (match List.nth_opt projections (k - 1) with
       | Some (Ast.Proj (pe, _)) -> pe
       | _ -> e)
    | _ -> e
  in
  match e with
  | Ast.Column (None, name) ->
    Option.value ~default:e
      (List.find_map
         (function Ast.Proj (pe, Some a) when String.equal a name -> Some pe | _ -> None)
         projections)
  | _ -> e

let projection_name i = function
  | Ast.Proj (_, Some alias) -> alias
  | Ast.Proj (Ast.Column (_, name), None) -> name
  | Ast.Proj (Ast.Agg { agg_name; _ }, None) -> agg_name
  | Ast.Proj (Ast.Func (name, _), None) -> name
  | Ast.Proj (_, None) -> Printf.sprintf "column%d" (i + 1)
  | Ast.Star | Ast.Star_of _ -> "*"

(* aggregate computation *)
type agg_state = {
  mutable count : int;
  mutable sum_int : int;
  mutable sum_float : float;
  mutable saw_float : bool;
  mutable min_v : Datum.t;
  mutable max_v : Datum.t;
  mutable distinct_seen : (Datum.t list, unit) Hashtbl.t option;
}

let new_agg_state distinct =
  {
    count = 0;
    sum_int = 0;
    sum_float = 0.0;
    saw_float = false;
    min_v = Datum.Null;
    max_v = Datum.Null;
    distinct_seen = (if distinct then Some (Hashtbl.create 16) else None);
  }

let agg_feed st (v : Datum.t) =
  if not (Datum.is_null v) then begin
    let fresh =
      match st.distinct_seen with
      | None -> true
      | Some seen ->
        if Hashtbl.mem seen [ v ] then false
        else begin
          Hashtbl.replace seen [ v ] ();
          true
        end
    in
    if fresh then begin
      st.count <- st.count + 1;
      (match v with
       | Datum.Int i -> st.sum_int <- st.sum_int + i
       | Datum.Float f ->
         st.saw_float <- true;
         st.sum_float <- st.sum_float +. f
       | _ -> ());
      if Datum.is_null st.min_v || Datum.compare v st.min_v < 0 then
        st.min_v <- v;
      if Datum.is_null st.max_v || Datum.compare v st.max_v > 0 then
        st.max_v <- v
    end
  end

let agg_result name st =
  match name with
  | "count" -> Datum.Int st.count
  | "sum" ->
    if st.count = 0 then Datum.Null
    else if st.saw_float then
      Datum.Float (st.sum_float +. float_of_int st.sum_int)
    else Datum.Int st.sum_int
  | "avg" ->
    if st.count = 0 then Datum.Null
    else
      Datum.Float
        ((st.sum_float +. float_of_int st.sum_int) /. float_of_int st.count)
  | "min" -> st.min_v
  | "max" -> st.max_v
  | other -> err "unsupported aggregate %s" other

(* Replace group-by expressions and aggregates with references into the
   post-aggregation row, top-down. *)
let rec rewrite_post_agg group_exprs agg_exprs e =
  match List.find_index (fun g -> g = e) group_exprs with
  | Some i -> Ast.Column (None, Printf.sprintf "__g%d" i)
  | None ->
    (match List.find_index (fun a -> Ast.Agg a = e) agg_exprs, e with
     | Some j, _ -> Ast.Column (None, Printf.sprintf "__a%d" j)
     | None, Ast.Agg _ -> err "aggregate not in GROUP BY rewrite"
     | None, _ -> Ast.map_children (rewrite_post_agg group_exprs agg_exprs) e)

(* OFFSET / LIMIT: an integer known by run time *)
let int_getter p what e =
  let value = run_const p e in
  fun ctx ->
    match Option.bind value (fun get -> get ctx) with
    | Some (Datum.Int i) -> i
    | _ -> err "%s must be an integer constant" what

(* [?given] is a relation handed in as column names and rows, served
   before the catalog in [sel]'s FROM items. It is an argument, not a
   field of [planning], which every kept plan holds. *)
let rec plan_select ?given p (sel : Ast.select) : string list * (ctx -> Datum.t array list) =
  let schema, source = plan_from_where ?given p sel in
  (* expand stars *)
  let projections =
    List.concat_map
      (fun proj ->
        match proj with
        | Ast.Star ->
          List.map
            (fun (c : Expr_eval.rcol) -> Ast.Proj (Ast.Column (c.rq, c.rname), None))
            schema
        | Ast.Star_of q ->
          let cols =
            List.filter
              (fun (c : Expr_eval.rcol) -> c.rq = Some q)
              schema
          in
          if cols = [] then err "no table %s in FROM" q;
          List.map
            (fun (c : Expr_eval.rcol) -> Ast.Proj (Ast.Column (c.rq, c.rname), None))
            cols
        | Ast.Proj _ -> [ proj ])
      sel.projections
  in
  let names = List.mapi projection_name projections in
  let proj_exprs =
    List.map (function Ast.Proj (e, _) -> e | _ -> assert false) projections
  in
  let group_by = List.map (substitute_refs projections) sel.group_by in
  let order_by = List.map (fun (e, d) -> (substitute_refs projections e, d)) sel.order_by in
  let having = sel.having in
  let all_output_exprs =
    proj_exprs
    @ (match having with Some h -> [ h ] | None -> [])
    @ List.map fst order_by
  in
  let aggs = Ast.collect_aggs all_output_exprs in
  let grouped = group_by <> [] || aggs <> [] in
  let schema2, aggregate, proj_exprs, having, order_by =
    if not grouped then (schema, None, proj_exprs, having, order_by)
    else begin
      let key_fns = List.map (compile p schema) group_by in
      let aggs = Array.of_list aggs in
      let agg_arg_fns =
        Array.map
          (fun (a : Ast.agg) -> Option.map (compile p schema) a.agg_arg)
          aggs
      in
      let nkeys = List.length group_by in
      let new_states () =
        Array.map (fun (a : Ast.agg) -> new_agg_state a.agg_distinct) aggs
      in
      let aggregate ctx rows =
        let groups : (Datum.t list, agg_state array) Hashtbl.t =
          Hashtbl.create 64
        in
        let group_order = ref [] in
        List.iter
          (fun row ->
            Meter.add_aggregated ctx.meter 1;
            let key = List.map (fun f -> f ctx row) key_fns in
            let states =
              match Hashtbl.find_opt groups key with
              | Some states -> states
              | None ->
                let states = new_states () in
                Hashtbl.replace groups key states;
                group_order := key :: !group_order;
                states
            in
            Array.iteri
              (fun i st ->
                match agg_arg_fns.(i) with
                | Some f -> agg_feed st (f ctx row)
                | None -> (* COUNT star counts rows *) st.count <- st.count + 1)
              states)
          rows;
        (* no rows and no GROUP BY: one empty group *)
        if Hashtbl.length groups = 0 && nkeys = 0 then begin
          Hashtbl.replace groups [] (new_states ());
          group_order := [ [] ]
        end;
        List.rev_map
          (fun key ->
            let states =
              match Hashtbl.find_opt groups key with
              | Some states -> states
              | None -> assert false (* group_order only holds live keys *)
            in
            let row = Array.make (nkeys + Array.length aggs) Datum.Null in
            List.iteri (fun i v -> row.(i) <- v) key;
            Array.iteri
              (fun j st -> row.(nkeys + j) <- agg_result aggs.(j).Ast.agg_name st)
              states;
            row)
          !group_order
      in
      let post_schema =
        List.mapi
          (fun i _ -> { Expr_eval.rq = None; rname = Printf.sprintf "__g%d" i })
          group_by
        @ List.init (Array.length aggs) (fun j ->
              { Expr_eval.rq = None; rname = Printf.sprintf "__a%d" j })
      in
      let rw = rewrite_post_agg group_by (Array.to_list aggs) in
      ( post_schema,
        Some aggregate,
        List.map rw proj_exprs,
        Option.map rw having,
        List.map (fun (e, d) -> (rw e, d)) order_by )
    end
  in
  let having = Option.map (compile p schema2) having in
  let sort_keys = List.map (fun (e, d) -> (compile p schema2 e, d)) order_by in
  let proj_fns = Array.of_list (List.map (compile p schema2) proj_exprs) in
  let offset = Option.map (int_getter p "OFFSET") sel.offset in
  let limit = Option.map (int_getter p "LIMIT") sel.limit in
  let run ctx =
    let rows = source ctx in
    let rows = match aggregate with None -> rows | Some agg -> agg ctx rows in
    (* HAVING *)
    let rows =
      match having with
      | None -> rows
      | Some f -> filter_all ctx [ f ] rows
    in
    (* ORDER BY (before projection, so sort keys can reference input schema) *)
    let rows =
      match sort_keys with
      | [] -> rows
      | keys ->
        Meter.add_sorted ctx.meter (List.length rows);
        let cmp a b =
          let rec go = function
            | [] -> 0
            | (f, dir) :: rest ->
              let c = Datum.compare (f ctx a) (f ctx b) in
              let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
              if c <> 0 then c else go rest
          in
          go keys
        in
        List.stable_sort cmp rows
    in
    (* project *)
    let projected = List.map (fun row -> Array.map (fun f -> f ctx row) proj_fns) rows in
    (* DISTINCT *)
    let distinct_rows =
      if not sel.distinct then projected
      else begin
        let seen = Hashtbl.create 64 in
        List.filter
          (fun row ->
            let key = Array.to_list row in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.replace seen key ();
              true
            end)
          projected
      end
    in
    (* OFFSET / LIMIT *)
    let with_offset =
      match offset with
      | None -> distinct_rows
      | Some n ->
        let n = n ctx in
        List.filteri (fun i _ -> i >= n) distinct_rows
    in
    match limit with
    | None -> with_offset
    | Some n ->
      let n = n ctx in
      List.filteri (fun i _ -> i < n) with_offset
  in
  (names, run)

(* FROM + WHERE: the joined schema, and the filtered rows per execution. *)
and plan_from_where ?given p (sel : Ast.select) :
    Expr_eval.schema * (ctx -> Datum.t array list) =
  let conjuncts = match sel.where with Some w -> Ast.conjuncts w | None -> [] in
  match sel.from with
  | [] ->
    (* SELECT without FROM: one empty row, WHERE may still filter it *)
    let filters = List.map (compile p []) conjuncts in
    ( [],
      fun ctx ->
        let row = [||] in
        if List.for_all (fun f -> Expr_eval.eval_bool f ctx row) filters then [ row ]
        else [] )
  | items ->
    let all_exprs =
      List.filter_map (function Ast.Proj (e, _) -> Some e | _ -> None)
        sel.projections
      @ conjuncts @ sel.group_by
      @ (match sel.having with Some h -> [ h ] | None -> [])
      @ List.map fst sel.order_by
    in
    (* fold FROM items left to right as cross joins *)
    let applied = ref [] in
    let joined =
      List.fold_left
        (fun acc item ->
          let right =
            plan_from_item ?given p item ~pushdown:true ~conjuncts ~applied ~all_exprs
          in
          match acc with
          | None -> Some right
          | Some left -> Some (plan_join p left right Ast.Inner None))
        None items
    in
    let schema, source = Option.get joined in
    (* the conjuncts no base-table scan applied; every one is compiled
       against the full schema, which rejects an ambiguous column *)
    let residual =
      List.filter_map
        (fun conj ->
          let f = compile p schema conj in
          if List.memq conj !applied then None else Some f)
        conjuncts
    in
    (schema, fun ctx -> filter_all ctx residual (source ctx))

and filter_all ctx filters rows =
  List.fold_left
    (fun rows f -> List.filter (fun row -> Expr_eval.eval_bool f ctx row) rows)
    rows filters

(* [applied] collects the conjuncts a base-table scan has applied, so
   each is evaluated once per row. *)
and plan_from_item ?given p item ~pushdown ~conjuncts ~applied ~all_exprs :
    Expr_eval.schema * (ctx -> Datum.t array list) =
  match item with
  | Ast.Table { name; alias } -> (
    match given with
    | Some (rel, columns, rows) when String.equal rel name ->
      (* a tuplestore: no pages, no locks; every conjunct stays residual *)
      let q = Some (Option.value ~default:name alias) in
      (List.map (fun c -> { Expr_eval.rq = q; rname = c }) columns, fun _ -> rows)
    | _ ->
      let table = find_table p name in
      let schema = table_schema ~alias table in
      (* push down conjuncts that only reference this table; disabled
         under the nullable side of an outer join, where filtering early
         would suppress null extension *)
      let local =
        if pushdown then
          List.filter
            (fun c -> expr_resolvable schema c && not (List.memq c !applied))
            conjuncts
        else []
      in
      applied := local @ !applied;
      let scan = plan_scan p table ~alias ~conjuncts:local ~all_exprs in
      (* apply the pushed-down filter now (cheaper row set for joins) *)
      let filters = List.map (compile p schema) local in
      (schema, fun ctx -> filter_all ctx filters (List.map snd (scan ctx))))
  | Ast.Subselect (inner, alias) ->
    let names, rows = plan_select ?given p inner in
    (List.map (fun n -> { Expr_eval.rq = Some alias; rname = n }) names, rows)
  | Ast.Join { left; right; kind; cond } ->
    let l = plan_from_item ?given p left ~pushdown ~conjuncts ~applied ~all_exprs in
    let right_pushdown = pushdown && kind <> Ast.Left_outer in
    let r =
      plan_from_item ?given p right ~pushdown:right_pushdown ~conjuncts ~applied ~all_exprs
    in
    plan_join p l r kind cond

(* Join two relations; uses a hash join when the condition contains an
   equality between one column of each side, otherwise nested loop. *)
and plan_join p (lschema, lrows) (rschema, rrows) kind cond :
    Expr_eval.schema * (ctx -> Datum.t array list) =
  let schema = lschema @ rschema in
  let combine lr rr = Array.append lr rr in
  let null_right = Array.make (List.length rschema) Datum.Null in
  let cond_conjuncts = match cond with Some c -> Ast.conjuncts c | None -> [] in
  (* find an equi-join conjunct *)
  let equi =
    List.find_map
      (fun conj ->
        match conj with
        | Ast.Cmp (Ast.Eq, a, b) ->
          let try_pair x y =
            if expr_resolvable lschema x && expr_resolvable rschema y
               && (not (expr_resolvable lschema y))
            then Some (x, y)
            else None
          in
          (match try_pair a b with
           | Some p -> Some p
           | None ->
             (match try_pair b a with Some p -> Some p | None -> None))
        | _ -> None)
      cond_conjuncts
  in
  let residual_fns = List.map (compile p schema) cond_conjuncts in
  let residual_ok ctx row =
    List.for_all (fun f -> Expr_eval.eval_bool f ctx row) residual_fns
  in
  let join =
    match equi with
    | Some (lkey_e, rkey_e) ->
      let lkey = compile p lschema lkey_e in
      let rkey = compile p rschema rkey_e in
      fun ctx lrows rrows out ->
        let table = Hashtbl.create (List.length rrows) in
        List.iter
          (fun rr ->
            let k = rkey ctx rr in
            if not (Datum.is_null k) then
              Hashtbl.add table (Datum.to_sql_literal k) rr)
          rrows;
        List.iter
          (fun lr ->
            Meter.add_scanned ctx.meter 1;
            let k = lkey ctx lr in
            let matches =
              if Datum.is_null k then []
              else Hashtbl.find_all table (Datum.to_sql_literal k)
            in
            let kept =
              List.filter (fun rr -> residual_ok ctx (combine lr rr)) matches
            in
            match kept, kind with
            | [], Ast.Left_outer -> out := combine lr null_right :: !out
            | [], Ast.Inner -> ()
            | rs, _ ->
              List.iter (fun rr -> out := combine lr rr :: !out) (List.rev rs))
          lrows
    | None ->
      fun ctx lrows rrows out ->
        List.iter
          (fun lr ->
            let matched = ref false in
            List.iter
              (fun rr ->
                Meter.add_scanned ctx.meter 1;
                let row = combine lr rr in
                if residual_ok ctx row then begin
                  matched := true;
                  out := row :: !out
                end)
              rrows;
            if (not !matched) && kind = Ast.Left_outer then
              out := combine lr null_right :: !out)
          lrows
  in
  ( schema,
    fun ctx ->
      let l = lrows ctx in
      let r = rrows ctx in
      let out = ref [] in
      join ctx l r out;
      List.rev !out )

(* --- writes --- *)

(* Every DML statement marks its transaction as having written, so its
   commit is logged: columnar appends log no record of their own, and
   their stripes' visibility after a restart comes from the replayed
   clog. *)
let require_xid ctx =
  match ctx.xid with
  | Some x ->
    Txn.Manager.note_write ctx.mgr x;
    x
  | None -> err "DML requires a transaction"

let heap_of (table : Catalog.table) =
  match table.store with
  | Catalog.Heap_store h -> Some h
  | Catalog.Columnar_store _ -> None

(* Does a live or in-doubt version with this PK already exist? [None]
   when the table has no primary key. *)
let pk_checker (table : Catalog.table) heap =
  match table.primary_key with
  | [] -> None
  | pk_cols ->
    let cols = Array.of_list (List.map (Catalog.column_index table) pk_cols) in
    let tree = pk_tree table in
    let key = Array.make (Array.length cols) Datum.Null in
    Some
      (fun ctx row ->
        Array.iteri (fun j i -> key.(j) <- row.(i)) cols;
        let candidate_tids =
          match tree with
          | Some tree ->
            Meter.add_probe ctx.meter 1;
            Storage.Btree.find_eq ~pool:ctx.pool tree key
          | None -> err "primary key on %s has no index" table.tbl_name
        in
        List.exists
          (fun tid ->
            match Storage.Heap.header heap ~tid with
            | None -> false
            | Some (xmin, xmax) ->
              let mine x = ctx.xid = Some x in
              let insert_alive =
                mine xmin
                || (match status ctx xmin with
                    | Txn.Manager.Committed -> true
                    | Txn.Manager.In_progress -> true (* pessimistic *)
                    | Txn.Manager.Aborted -> false)
              in
              let deleted =
                xmax <> 0
                && (mine xmax
                    || status ctx xmax = Txn.Manager.Committed
                    || status ctx xmax = Txn.Manager.In_progress)
              in
              insert_alive && not deleted)
          candidate_tids)

let check_not_null (table : Catalog.table) row =
  List.iteri
    (fun i (c : Ast.column_def) ->
      if c.col_not_null && Datum.is_null row.(i) then
        err "null value in column %s violates not-null constraint" c.col_name)
    table.columns

let rows_inserter p (table : Catalog.table) ~on_conflict_do_nothing =
  match table.store with
  | Catalog.Columnar_store col ->
    fun ctx rows ->
      let xid = require_xid ctx in
      acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
      List.iter (check_not_null table) rows;
      Storage.Columnar.append col ~xid rows;
      Meter.add_written ctx.meter (List.length rows);
      List.length rows
  | Catalog.Heap_store heap ->
    let conflict = pk_checker table heap in
    let index_add = index_adder p table table.indexes in
    fun ctx rows ->
      let xid = require_xid ctx in
      acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
      let inserted = ref 0 in
      List.iter
        (fun row ->
          check_not_null table row;
          if match conflict with Some f -> f ctx row | None -> false then begin
            if not on_conflict_do_nothing then
              err "duplicate key value violates primary key of %s" table.tbl_name
          end
          else begin
            let tid = Storage.Heap.insert heap ~xid row in
            ignore
              (Storage.Buffer_pool.access ctx.pool
                 {
                   Storage.Buffer_pool.relation = table.tbl_name;
                   page_no = tid / Storage.Heap.rows_per_page heap;
                 });
            Txn.Manager.log ctx.mgr
              (Txn.Wal.Insert { xid; table = table.tbl_name; tid; row });
            index_add ctx tid row;
            Meter.add_written ctx.meter 1;
            incr inserted
          end)
        rows;
      !inserted

(* Full-width rows from an INSERT column list and a row of values: every
   column's default, then each value cast into its target column. *)
let row_builder p (table : Catalog.table) columns =
  let tys = Catalog.column_tys table in
  let ncols = List.length table.columns in
  let positions =
    Array.of_list
      (match columns with
       | None -> List.init ncols Fun.id
       | Some cols -> List.map (Catalog.column_index table) cols)
  in
  let defaults =
    Array.of_list
      (List.map
         (fun (c : Ast.column_def) ->
           match c.col_default with
           | Some e -> Some (compile p [] e)
           | None -> None)
         table.columns)
  in
  fun ctx (values : Datum.t array) ->
    if Array.length values <> Array.length positions then
      err "INSERT has %d expressions but %d target columns"
        (Array.length values) (Array.length positions);
    let row =
      Array.map (function Some f -> f ctx [||] | None -> Datum.Null) defaults
    in
    Array.iteri
      (fun j pos ->
        row.(pos) <-
          (try Datum.cast values.(j) tys.(pos)
           with Datum.Cast_error m -> raise (Exec_error m)))
      positions;
    row

let plan_insert p ~table ~columns ~source ~on_conflict_do_nothing =
  let table = find_table p table in
  let build = row_builder p table columns in
  let value_rows =
    match source with
    | Ast.Values tuples ->
      let tuples = List.map (fun t -> Array.of_list (List.map (compile p []) t)) tuples in
      fun ctx ->
        (* every value is evaluated before any row is built *)
        List.map (Array.map (fun f -> f ctx [||])) tuples
    | Ast.Query sel -> snd (plan_select p sel)
  in
  let insert = rows_inserter p table ~on_conflict_do_nothing in
  fun ctx -> insert ctx (List.map (build ctx) (value_rows ctx))

(* The rows an UPDATE or DELETE targets, with their tids. *)
let plan_targets p (table : Catalog.table) where =
  let conjuncts = match where with Some w -> Ast.conjuncts w | None -> [] in
  let scan = plan_scan p table ~alias:None ~conjuncts ~all_exprs:conjuncts in
  match where with
  | None -> scan
  | Some w ->
    let f = compile p (table_schema ~alias:None table) w in
    fun ctx -> List.filter (fun (_tid, row) -> Expr_eval.eval_bool f ctx row) (scan ctx)

(* The write lock on each target, all taken before any row changes so
   that a deadlock surfaces as Would_block. *)
let lock_rows ctx (table : Catalog.table) targets =
  List.iter
    (fun (tid, _) ->
      match tid with
      | Some tid ->
        acquire_lock ctx (Txn.Lock.Row (table.tbl_name, tid)) Txn.Lock.Row_lock
      | None -> ())
    targets

(* Re-check that a target version is still the live one, against the TRUE
   transaction state (never a snapshot override: write conflicts are
   about the latest state). A committed deleter means the row vanished
   under us — skip it, like the READ COMMITTED recheck. An in-progress
   deleter is a live write-write conflict: normally the row lock prevents
   ever getting here, but a crash-recovered prepared transaction wrote
   this xmax under locks the restart discarded — overwriting it would
   resurrect the row the in-doubt transaction deleted, splitting one
   logical row in two when the recovery daemon commits it. Surface the
   conflict instead. *)
let still_live ctx heap tid =
  match Storage.Heap.header heap ~tid with
  | Some (_, xmax)
    when xmax <> 0 && (not (ctx.xid = Some xmax))
         && Txn.Manager.status ctx.mgr xmax = Txn.Manager.Committed ->
    false
  | Some (_, xmax)
    when xmax <> 0 && (not (ctx.xid = Some xmax))
         && Txn.Manager.status ctx.mgr xmax = Txn.Manager.In_progress ->
    raise (Would_block [ xmax ])
  | Some _ -> true
  | None -> false

let writable_heap p name =
  let table = find_table p name in
  match heap_of table with
  | Some h -> (table, h)
  | None -> err "columnar table %s is append-only" table.tbl_name

let plan_update p ~table ~sets ~where =
  let table, heap = writable_heap p table in
  let schema = table_schema ~alias:None table in
  let tys = Catalog.column_tys table in
  let set_fns =
    List.map
      (fun (col, e) -> (Catalog.column_index table col, compile p schema e))
      sets
  in
  let targets = plan_targets p table where in
  let index_add = index_adder p table table.indexes in
  fun ctx ->
    let xid = require_xid ctx in
    acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
    let targets = targets ctx in
    lock_rows ctx table targets;
    let updated = ref 0 in
    List.iter
      (fun (tid, row) ->
        match tid with
        | Some tid when still_live ctx heap tid ->
          let new_row = Array.copy row in
          List.iter
            (fun (pos, f) ->
              new_row.(pos) <-
                (try Datum.cast (f ctx row) tys.(pos)
                 with Datum.Cast_error m -> raise (Exec_error m)))
            set_fns;
          check_not_null table new_row;
          ignore (Storage.Heap.delete heap ~xid ~tid);
          let new_tid = Storage.Heap.insert heap ~xid new_row in
          ignore
            (Storage.Buffer_pool.access ctx.pool
               {
                 Storage.Buffer_pool.relation = table.tbl_name;
                 page_no = new_tid / Storage.Heap.rows_per_page heap;
               });
          Txn.Manager.log ctx.mgr
            (Txn.Wal.Update
               { xid; table = table.tbl_name; old_tid = tid; new_tid; row = new_row });
          index_add ctx new_tid new_row;
          Meter.add_written ctx.meter 1;
          incr updated
        | _ -> ())
      targets;
    !updated

let plan_delete p ~table ~where =
  let table, heap = writable_heap p table in
  let targets = plan_targets p table where in
  fun ctx ->
    let xid = require_xid ctx in
    acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
    let targets = targets ctx in
    lock_rows ctx table targets;
    let deleted = ref 0 in
    List.iter
      (fun (tid, _row) ->
        match tid with
        | Some tid when still_live ctx heap tid ->
          if Storage.Heap.delete heap ~xid ~tid then begin
            Txn.Manager.log ctx.mgr
              (Txn.Wal.Delete { xid; table = table.tbl_name; tid });
            Meter.add_written ctx.meter 1;
            incr deleted
          end
        | _ -> ())
      targets;
    !deleted

(* --- plans --- *)

let planning catalog =
  let rec p =
    {
      cat = catalog;
      rt =
        {
          Expr_eval.x_params = (fun ctx -> ctx.params);
          x_now = (fun ctx -> ctx.now);
          x_rng = (fun ctx -> ctx.rng);
          x_subquery = (fun sel -> snd (plan_select p sel));
        };
    }
  in
  p

(* What a generic plan cannot settle before the values are known, so the
   statement is planned per execution from its bound form: a [$k] that
   may be an ordinal (a whole GROUP BY or ORDER BY item), a [$k] where
   the GROUP BY rewrite matches expressions structurally, and a LIKE
   pattern, which may pick a GIN index. *)
let rec generic_select (sel : Ast.select) =
  let has_param e =
    Ast.fold_expr (fun acc n -> acc || match n with Ast.Param _ -> true | _ -> false) false e
  in
  let nested_ok e =
    Ast.fold_expr
      (fun ok n ->
        ok
        &&
        match n with
        | Ast.Exists (s, _) | Ast.In_subquery (_, s, _) | Ast.Scalar_subquery s ->
          generic_select s
        | Ast.Like { pattern; _ } -> not (has_param pattern)
        | _ -> true)
      true e
  in
  let rec from_ok = function
    | Ast.Table _ -> true
    | Ast.Subselect (s, _) -> generic_select s
    | Ast.Join { left; right; cond; _ } ->
      from_ok left && from_ok right && Option.fold ~none:true ~some:nested_ok cond
  in
  let proj = List.filter_map (function Ast.Proj (e, _) -> Some e | _ -> None) sel.projections in
  let having = Option.to_list sel.having and order = List.map fst sel.order_by in
  let grouped = sel.group_by <> [] || List.exists Ast.contains_aggregate (proj @ having @ order) in
  List.for_all nested_ok
    (proj @ Option.to_list sel.where @ having @ order @ Option.to_list sel.limit
     @ Option.to_list sel.offset)
  && List.for_all from_ok sel.from
  && (not (List.exists has_param sel.group_by))
  && (not (List.exists (function Ast.Param _ -> true | _ -> false) order))
  && not (grouped && List.exists has_param (proj @ having @ order))

let is_generic =
  let select ?(projections = []) where =
    { Ast.distinct = false; projections; from = []; where; group_by = []; having = None;
      order_by = []; limit = None; offset = None }
  in
  function
  | Ast.Select_stmt sel | Ast.Insert { source = Ast.Query sel; _ } -> generic_select sel
  | Ast.Update { sets; where; _ } ->
    generic_select (select ~projections:(List.map (fun (_, e) -> Ast.Proj (e, None)) sets) where)
  | Ast.Delete { where; _ } -> generic_select (select where)
  | _ -> true

type plan = { p_catalog : Catalog.t; p_version : int; p_run : ctx -> result }

type plan_stats =
  { mutable builds : int; mutable runs : int; mutable planned_runs : int; mutable invalidations : int }

let plan_stats () = { builds = 0; runs = 0; planned_runs = 0; invalidations = 0 }

let affected tag n = { columns = []; rows = []; affected = n; tag }

(* The same constructors and values: a bound plan may return a value,
   and [0.] and [-0.] print apart. *)
let same_values xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun a b ->
         match a, b with
         | Datum.Float x, Datum.Float y | Datum.Timestamp x, Datum.Timestamp y ->
           Int64.bits_of_float x = Int64.bits_of_float y
         | Datum.Json x, Datum.Json y -> x == y
         | _ -> a = b)
       xs ys

let rec prepare ?stats catalog (stmt : Ast.statement) =
  let run =
    if not (is_generic stmt) then begin
      (* bound and planned at a run, and kept for runs with the same values *)
      let last = ref None in
      fun ctx ->
        let plan =
          match !last with
          | Some (values, plan) when same_values values ctx.params -> plan
          | _ ->
            let bound =
              try Ast.bind_params (Array.to_list ctx.params) stmt
              with Ast.Unbound_param k -> err "unbound parameter $%d" k
            in
            Option.iter (fun st -> st.planned_runs <- st.planned_runs + 1) stats;
            let plan = prepare catalog bound in
            last := Some (Array.copy ctx.params, plan);
            plan
        in
        plan.p_run ctx
    end
    else
      let p = planning catalog in
      match stmt with
      | Ast.Select_stmt sel ->
        let columns, rows = plan_select p sel in
        fun ctx ->
          let rows = rows ctx in
          { columns; rows; affected = List.length rows; tag = "SELECT" }
      | Ast.Insert { table; columns; source; on_conflict_do_nothing } ->
        let run = plan_insert p ~table ~columns ~source ~on_conflict_do_nothing in
        fun ctx -> affected "INSERT" (run ctx)
      | Ast.Update { table; sets; where } ->
        let run = plan_update p ~table ~sets ~where in
        fun ctx -> affected "UPDATE" (run ctx)
      | Ast.Delete { table; where } ->
        let run = plan_delete p ~table ~where in
        fun ctx -> affected "DELETE" (run ctx)
      | _ -> err "unsupported statement"
  in
  { p_catalog = catalog; p_version = Catalog.version catalog; p_run = run }

let run plan ctx = plan.p_run ctx

(* --- plans kept between executions --- *)

(* At most one plan per catalog: a reference-table read runs locally on
   every node that holds a replica, and a plan is built for one node. *)
type kept = { k_stmt : Ast.statement; k_params : int array; mutable k_plans : plan list }

let keep stmt = { k_stmt = stmt; k_params = Array.of_list (Ast.params stmt); k_plans = [] }

let first_unbound k n = Array.find_opt (fun i -> i > n) k.k_params

(* The plan kept for [ctx.catalog], built when there is none and rebuilt
   when it was built at an older version of the catalog. *)
let run_kept stats k ctx =
  let catalog = ctx.catalog in
  let plan =
    match List.find_opt (fun p -> p.p_catalog == catalog) k.k_plans with
    | Some plan when plan.p_version = Catalog.version catalog -> plan
    | stale ->
      if Option.is_some stale then stats.invalidations <- stats.invalidations + 1;
      let plan = prepare ~stats catalog k.k_stmt in
      k.k_plans <- plan :: List.filter (fun p -> p.p_catalog != catalog) k.k_plans;
      stats.builds <- stats.builds + 1;
      plan
  in
  stats.runs <- stats.runs + 1;
  plan.p_run ctx

(* --- one-off entry points: plan, then run once --- *)

let eval_const ctx e = compile (planning ctx.catalog) [] e ctx [||]

let run_select ?relation ctx sel =
  let names, rows = plan_select ?given:relation (planning ctx.catalog) sel in
  (names, rows ctx)

let run_insert ctx ~table ~columns ~source ~on_conflict_do_nothing =
  plan_insert (planning ctx.catalog) ~table ~columns ~source ~on_conflict_do_nothing ctx

let run_update ctx ~table ~sets ~where =
  plan_update (planning ctx.catalog) ~table ~sets ~where ctx

let run_delete ctx ~table ~where = plan_delete (planning ctx.catalog) ~table ~where ctx

let insert_rows ctx ~table rows ~on_conflict_do_nothing =
  rows_inserter (planning ctx.catalog) table ~on_conflict_do_nothing ctx rows

let index_inserter ctx table indexes = index_adder (planning ctx.catalog) table indexes ctx
