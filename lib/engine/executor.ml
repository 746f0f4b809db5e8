open Sqlfront

type ctx = {
  catalog : Catalog.t;
  mgr : Txn.Manager.t;
  pool : Storage.Buffer_pool.t;
  meter : Meter.t;
  snapshot : Txn.Snapshot.t;
  xid : int option;
  vis : (int -> Txn.Manager.status) option;
  env : Expr_eval.env;
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

(* Evaluate an expression that references no columns (a planning-time
   constant). Returns None if it does reference columns. *)
let const_value ctx (e : Ast.expr) : Datum.t option =
  if expr_resolvable [] e then
    match Expr_eval.compile [] ctx.env e [||] with
    | v -> Some v
    | exception Expr_eval.Eval_error _ -> None
  else None

(* --- access paths --- *)

type access_path =
  | Seq
  | Btree_eq of Storage.Btree.t * Datum.t list  (** equality on a key prefix *)
  | Gin_candidates of Storage.Gin.t * string  (** the LIKE pattern *)

(* Match WHERE conjuncts of the form [col = const] for this table. A
   quoted constant probes as the comparison reads it. *)
let equality_bindings ctx (table : Catalog.table) schema conjuncts =
  let binding name = function
    | Ast.Const (Datum.Text _ as lit) ->
      let ty = (Catalog.column_tys table).(Catalog.column_index table name) in
      Some (name, Expr_eval.read_quoted ty lit)
    | e ->
      (match const_value ctx e with
       | Some v when not (Datum.is_null v) -> Some (name, v)
       | _ -> None)
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

(* --- index operations: with index creation and [Ddl.shard_schema],
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

let index_inserter ctx (table : Catalog.table) indexes =
  let per_index =
    List.map
      (fun (idx : Catalog.index) ->
        match idx.kind with
        | Catalog.Btree_index { columns; tree } ->
          let cols = Array.of_list (List.map (Catalog.column_index table) columns) in
          fun tid (row : Datum.t array) ->
            (* index maintenance reads the pages it modifies *)
            Storage.Btree.insert ~pool:ctx.pool tree (Array.map (Array.get row) cols) tid;
            Meter.add_index_update ctx.meter 1
        | Catalog.Gin_index { expr; gin } ->
          let key = Expr_eval.compile (table_schema ~alias:None table) ctx.env expr in
          fun tid row ->
            (match key row with
             | Datum.Null -> ()
             | v ->
               Meter.add_index_update ctx.meter
                 (Storage.Gin.add ~pool:ctx.pool gin ~tid (Datum.to_display v))))
      indexes
  in
  fun tid row -> List.iter (fun add -> add tid row) per_index

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
let choose_access_path ctx (table : Catalog.table) schema conjuncts =
  let bindings = equality_bindings ctx table schema conjuncts in
  let patterns = gin_patterns conjuncts in
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

(* Scan a base table with pushed-down conjuncts. Returns rows paired with
   their heap tid (None for columnar). The residual filter is NOT applied
   here; the caller compiles the full predicate. *)
let scan_base ctx (table : Catalog.table) ~alias ~conjuncts ~all_exprs :
    (int option * Datum.t array) list =
  acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Access_share;
  let schema = table_schema ~alias table in
  match table.store with
  | Catalog.Columnar_store col ->
    let columns = referenced_columns table schema all_exprs in
    let out = ref [] in
    (* stripe skipping from range conjuncts on a single column *)
    let stripe_predicate ~mins ~maxs =
      List.for_all
        (fun conj ->
          match conj with
          | Ast.Cmp (op, Ast.Column (q, name), rhs) ->
            (match const_value ctx rhs with
             | Some v when not (Datum.is_null v) ->
               (match Expr_eval.resolve schema q name with
                | i ->
                  let mn = mins.(i) and mx = maxs.(i) in
                  if Datum.is_null mn || Datum.is_null mx then true
                  else
                    (match op with
                     | Ast.Eq -> Datum.compare v mn >= 0 && Datum.compare v mx <= 0
                     | Ast.Lt | Ast.Le -> Datum.compare mn v <= 0
                     | Ast.Gt | Ast.Ge -> Datum.compare mx v >= 0
                     | Ast.Ne -> true)
                | exception Expr_eval.Eval_error _ -> true)
             | _ -> true)
          | _ -> true)
        conjuncts
    in
    Storage.Columnar.scan ~pool:ctx.pool ~stripe_predicate col
      ~status:(status ctx) ~snapshot:ctx.snapshot ~my_xid:ctx.xid ~columns
      ~f:(fun row ->
        Meter.add_scanned ctx.meter 1;
        out := (None, row) :: !out);
    List.rev !out
  | Catalog.Heap_store heap ->
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
    (match choose_access_path ctx table schema conjuncts with
     | Btree_eq (tree, prefix) ->
       Meter.add_probe ctx.meter 1;
       let entries =
         Storage.Btree.prefix ~pool:ctx.pool tree (Array.of_list prefix)
       in
       List.filter_map (fun (_k, tid) -> fetch tid) entries
     | Gin_candidates (gin, pattern) ->
       Meter.add_probe ctx.meter 1;
       (match Storage.Gin.candidates ~pool:ctx.pool gin pattern with
        | Some tids -> List.filter_map fetch tids
        | None -> seq () (* pattern too short *))
     | Seq -> seq ())

(* --- SELECT pipeline --- *)

(* Substitute ordinals (GROUP BY 1 / ORDER BY 2) with projection exprs. *)
let substitute_ordinal projections e =
  match e with
  | Ast.Const (Datum.Int k) ->
    (match List.nth_opt projections (k - 1) with
     | Some (Ast.Proj (pe, _)) -> pe
     | _ -> e)
  | _ -> e

(* Also allow ORDER BY / GROUP BY to reference projection aliases. *)
let substitute_alias projections e =
  match e with
  | Ast.Column (None, name) ->
    (match
       List.find_map
         (function
           | Ast.Proj (pe, Some a) when String.equal a name -> Some pe
           | _ -> None)
         projections
     with
     | Some pe -> pe
     | None -> e)
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
    (match List.find_index (fun a -> Ast.Agg a = e) agg_exprs with
     | Some j -> Ast.Column (None, Printf.sprintf "__a%d" j)
     | None ->
       (match e with
        | Ast.Const _ | Ast.Column _ | Ast.Param _ -> e
        | Ast.And (a, b) ->
          Ast.And (rewrite_post_agg group_exprs agg_exprs a,
                   rewrite_post_agg group_exprs agg_exprs b)
        | Ast.Or (a, b) ->
          Ast.Or (rewrite_post_agg group_exprs agg_exprs a,
                  rewrite_post_agg group_exprs agg_exprs b)
        | Ast.Not a -> Ast.Not (rewrite_post_agg group_exprs agg_exprs a)
        | Ast.Cmp (op, a, b) ->
          Ast.Cmp (op, rewrite_post_agg group_exprs agg_exprs a,
                   rewrite_post_agg group_exprs agg_exprs b)
        | Ast.Bin (op, a, b) ->
          Ast.Bin (op, rewrite_post_agg group_exprs agg_exprs a,
                   rewrite_post_agg group_exprs agg_exprs b)
        | Ast.Neg a -> Ast.Neg (rewrite_post_agg group_exprs agg_exprs a)
        | Ast.Is_null (a, p) ->
          Ast.Is_null (rewrite_post_agg group_exprs agg_exprs a, p)
        | Ast.In_list (a, items, n) ->
          Ast.In_list
            ( rewrite_post_agg group_exprs agg_exprs a,
              List.map (rewrite_post_agg group_exprs agg_exprs) items,
              n )
        | Ast.Between (a, lo, hi) ->
          Ast.Between
            ( rewrite_post_agg group_exprs agg_exprs a,
              rewrite_post_agg group_exprs agg_exprs lo,
              rewrite_post_agg group_exprs agg_exprs hi )
        | Ast.Like l ->
          Ast.Like
            {
              l with
              subject = rewrite_post_agg group_exprs agg_exprs l.subject;
              pattern = rewrite_post_agg group_exprs agg_exprs l.pattern;
            }
        | Ast.Json_get (a, b, t) ->
          Ast.Json_get
            ( rewrite_post_agg group_exprs agg_exprs a,
              rewrite_post_agg group_exprs agg_exprs b,
              t )
        | Ast.Cast (a, ty) ->
          Ast.Cast (rewrite_post_agg group_exprs agg_exprs a, ty)
        | Ast.Case (branches, else_) ->
          Ast.Case
            ( List.map
                (fun (c, v) ->
                  ( rewrite_post_agg group_exprs agg_exprs c,
                    rewrite_post_agg group_exprs agg_exprs v ))
                branches,
              Option.map (rewrite_post_agg group_exprs agg_exprs) else_ )
        | Ast.Func (name, args) ->
          Ast.Func (name, List.map (rewrite_post_agg group_exprs agg_exprs) args)
        | Ast.Agg _ -> err "aggregate not in GROUP BY rewrite"
        | Ast.Exists _ | Ast.In_subquery _ | Ast.Scalar_subquery _ -> e))

let rec run_select ctx (sel : Ast.select) : string list * Datum.t array list =
  let schema, rows = exec_from_where ctx sel in
  (* expand stars *)
  let projections =
    List.concat_map
      (fun p ->
        match p with
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
        | Ast.Proj _ -> [ p ])
      sel.projections
  in
  let names = List.mapi projection_name projections in
  let proj_exprs =
    List.map (function Ast.Proj (e, _) -> e | _ -> assert false) projections
  in
  let group_by =
    List.map
      (fun e -> substitute_alias projections (substitute_ordinal projections e))
      sel.group_by
  in
  let order_by =
    List.map
      (fun (e, d) ->
        (substitute_alias projections (substitute_ordinal projections e), d))
      sel.order_by
  in
  let having = sel.having in
  let all_output_exprs =
    proj_exprs
    @ (match having with Some h -> [ h ] | None -> [])
    @ List.map fst order_by
  in
  let aggs = Ast.collect_aggs all_output_exprs in
  let grouped = group_by <> [] || aggs <> [] in
  let schema2, rows2, proj_exprs, having, order_by =
    if not grouped then (schema, rows, proj_exprs, having, order_by)
    else begin
      (* compute groups *)
      let key_fns = List.map (Expr_eval.compile schema ctx.env) group_by in
      let agg_arg_fns =
        List.map
          (fun (a : Ast.agg) ->
            match a.agg_arg with
            | Some e -> Some (Expr_eval.compile schema ctx.env e)
            | None -> None)
          aggs
      in
      let groups : (Datum.t list, agg_state list * Datum.t list) Hashtbl.t =
        Hashtbl.create 64
      in
      let group_order = ref [] in
      List.iter
        (fun row ->
          Meter.add_aggregated ctx.meter 1;
          let key = List.map (fun f -> f row) key_fns in
          let states =
            match Hashtbl.find_opt groups key with
            | Some (states, _) -> states
            | None ->
              let states =
                List.map (fun (a : Ast.agg) -> new_agg_state a.agg_distinct) aggs
              in
              Hashtbl.replace groups key (states, key);
              group_order := key :: !group_order;
              states
          in
          List.iteri
            (fun i st ->
              let a = List.nth aggs i in
              match List.nth agg_arg_fns i with
              | Some f -> agg_feed st (f row)
              | None ->
                (* COUNT star counts rows *)
                ignore a;
                st.count <- st.count + 1)
            states)
        rows;
      (* no rows and no GROUP BY: one empty group *)
      if Hashtbl.length groups = 0 && group_by = [] then begin
        let states =
          List.map (fun (a : Ast.agg) -> new_agg_state a.agg_distinct) aggs
        in
        Hashtbl.replace groups [] (states, []);
        group_order := [ [] ]
      end;
      let post_rows =
        List.rev_map
          (fun key ->
            let states =
              match Hashtbl.find_opt groups key with
              | Some (states, _) -> states
              | None -> assert false (* group_order only holds live keys *)
            in
            let agg_values =
              List.mapi
                (fun i st -> agg_result (List.nth aggs i).Ast.agg_name st)
                states
            in
            Array.of_list (key @ agg_values))
          !group_order
      in
      let post_schema =
        List.mapi
          (fun i _ -> { Expr_eval.rq = None; rname = Printf.sprintf "__g%d" i })
          group_by
        @ List.mapi
            (fun j _ -> { Expr_eval.rq = None; rname = Printf.sprintf "__a%d" j })
            aggs
      in
      let rw = rewrite_post_agg group_by aggs in
      ( post_schema,
        post_rows,
        List.map rw proj_exprs,
        Option.map rw having,
        List.map (fun (e, d) -> (rw e, d)) order_by )
    end
  in
  (* HAVING *)
  let rows3 =
    match having with
    | None -> rows2
    | Some h ->
      let f = Expr_eval.compile schema2 ctx.env h in
      List.filter (Expr_eval.eval_bool f) rows2
  in
  (* ORDER BY (before projection, so sort keys can reference input schema) *)
  let rows4 =
    match order_by with
    | [] -> rows3
    | keys ->
      let compiled =
        List.map (fun (e, d) -> (Expr_eval.compile schema2 ctx.env e, d)) keys
      in
      Meter.add_sorted ctx.meter (List.length rows3);
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (f, dir) :: rest ->
            let c = Datum.compare (f a) (f b) in
            let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go rest
        in
        go compiled
      in
      List.stable_sort cmp rows3
  in
  (* project *)
  let proj_fns = List.map (Expr_eval.compile schema2 ctx.env) proj_exprs in
  let projected =
    List.map (fun row -> Array.of_list (List.map (fun f -> f row) proj_fns)) rows4
  in
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
  let int_of_expr what e =
    match const_value ctx e with
    | Some (Datum.Int i) -> i
    | _ -> err "%s must be an integer constant" what
  in
  let with_offset =
    match sel.offset with
    | None -> distinct_rows
    | Some e ->
      let n = int_of_expr "OFFSET" e in
      List.filteri (fun i _ -> i >= n) distinct_rows
  in
  let with_limit =
    match sel.limit with
    | None -> with_offset
    | Some e ->
      let n = int_of_expr "LIMIT" e in
      List.filteri (fun i _ -> i < n) with_offset
  in
  (names, with_limit)

(* FROM + WHERE: returns the joined schema and filtered rows. *)
and exec_from_where ctx (sel : Ast.select) :
    Expr_eval.schema * Datum.t array list =
  let conjuncts = match sel.where with Some w -> Ast.conjuncts w | None -> [] in
  match sel.from with
  | [] ->
    (* SELECT without FROM: one empty row, WHERE may still filter it *)
    let row = [||] in
    let keep =
      List.for_all
        (fun conj ->
          Expr_eval.eval_bool (Expr_eval.compile [] ctx.env conj) row)
        conjuncts
    in
    ([], if keep then [ row ] else [])
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
            exec_from_item ctx item ~pushdown:true ~conjuncts ~applied ~all_exprs
          in
          match acc with
          | None -> Some right
          | Some left -> Some (join_rel ctx left right Ast.Inner None))
        None items
    in
    let schema, rows = Option.get joined in
    (* apply the conjuncts no base-table scan applied; every one is
       compiled against the full schema, which rejects an ambiguous column *)
    let rows =
      List.fold_left
        (fun rows conj ->
          let f = Expr_eval.compile schema ctx.env conj in
          if List.memq conj !applied then rows
          else List.filter (Expr_eval.eval_bool f) rows)
        rows conjuncts
    in
    (schema, rows)

(* [applied] collects the conjuncts a base-table scan has applied, so
   each is evaluated once per row. *)
and exec_from_item ctx item ~pushdown ~conjuncts ~applied ~all_exprs :
    Expr_eval.schema * Datum.t array list =
  match item with
  | Ast.Table { name; alias } ->
    let table =
      match Catalog.find_table_opt ctx.catalog name with
      | Some t -> t
      | None -> err "relation %s does not exist" name
    in
    let schema = table_schema ~alias table in
    (* push down conjuncts that only reference this table; disabled under
       the nullable side of an outer join, where filtering early would
       suppress null extension *)
    let local =
      if pushdown then
        List.filter
          (fun c -> expr_resolvable schema c && not (List.memq c !applied))
          conjuncts
      else []
    in
    applied := local @ !applied;
    let pairs = scan_base ctx table ~alias ~conjuncts:local ~all_exprs in
    (* apply the pushed-down filter now (cheaper row set for joins) *)
    let rows = List.map snd pairs in
    let rows =
      List.fold_left
        (fun rows conj ->
          let f = Expr_eval.compile schema ctx.env conj in
          List.filter (Expr_eval.eval_bool f) rows)
        rows local
    in
    (schema, rows)
  | Ast.Subselect (inner, alias) ->
    let names, rows = run_select ctx inner in
    let schema =
      List.map (fun n -> { Expr_eval.rq = Some alias; rname = n }) names
    in
    (schema, rows)
  | Ast.Join { left; right; kind; cond } ->
    let l = exec_from_item ctx left ~pushdown ~conjuncts ~applied ~all_exprs in
    let right_pushdown = pushdown && kind <> Ast.Left_outer in
    let r =
      exec_from_item ctx right ~pushdown:right_pushdown ~conjuncts ~applied ~all_exprs
    in
    join_rel ctx l r kind cond

(* Join two relations; uses a hash join when the condition contains an
   equality between one column of each side, otherwise nested loop. *)
and join_rel ctx (lschema, lrows) (rschema, rrows) kind cond :
    Expr_eval.schema * Datum.t array list =
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
  let residual_fns =
    List.map (fun c -> Expr_eval.compile schema ctx.env c) cond_conjuncts
  in
  let residual_ok row = List.for_all (fun f -> Expr_eval.eval_bool f row) residual_fns in
  let out = ref [] in
  (match equi with
   | Some (lkey_e, rkey_e) ->
     let lkey = Expr_eval.compile lschema ctx.env lkey_e in
     let rkey = Expr_eval.compile rschema ctx.env rkey_e in
     let table = Hashtbl.create (List.length rrows) in
     List.iter
       (fun rr ->
         let k = rkey rr in
         if not (Datum.is_null k) then
           Hashtbl.add table (Datum.to_sql_literal k) rr)
       rrows;
     List.iter
       (fun lr ->
         Meter.add_scanned ctx.meter 1;
         let k = lkey lr in
         let matches =
           if Datum.is_null k then []
           else Hashtbl.find_all table (Datum.to_sql_literal k)
         in
         let kept =
           List.filter (fun rr -> residual_ok (combine lr rr)) matches
         in
         match kept, kind with
         | [], Ast.Left_outer -> out := combine lr null_right :: !out
         | [], Ast.Inner -> ()
         | rs, _ ->
           List.iter (fun rr -> out := combine lr rr :: !out) (List.rev rs))
       lrows
   | None ->
     List.iter
       (fun lr ->
         let matched = ref false in
         List.iter
           (fun rr ->
             Meter.add_scanned ctx.meter 1;
             let row = combine lr rr in
             if residual_ok row then begin
               matched := true;
               out := row :: !out
             end)
           rrows;
         if (not !matched) && kind = Ast.Left_outer then
           out := combine lr null_right :: !out)
       lrows);
  (schema, List.rev !out)

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

(* Does a live or in-doubt version with this PK already exist? *)
let pk_conflict ctx (table : Catalog.table) row =
  match table.primary_key with
  | [] -> false
  | pk_cols ->
    let heap =
      match heap_of table with Some h -> h | None -> (* columnar: no pk *) raise Exit
    in
    let key =
      Array.of_list
        (List.map (fun c -> row.(Catalog.column_index table c)) pk_cols)
    in
    let candidate_tids =
      match pk_tree table with
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
      candidate_tids

let check_not_null (table : Catalog.table) row =
  List.iteri
    (fun i (c : Ast.column_def) ->
      if c.col_not_null && Datum.is_null row.(i) then
        err "null value in column %s violates not-null constraint" c.col_name)
    table.columns

let insert_rows ctx ~(table : Catalog.table) rows ~on_conflict_do_nothing =
  let xid = require_xid ctx in
  acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
  match table.store with
  | Catalog.Columnar_store col ->
    List.iter (check_not_null table) rows;
    Storage.Columnar.append col ~xid rows;
    Meter.add_written ctx.meter (List.length rows);
    List.length rows
  | Catalog.Heap_store heap ->
    let inserted = ref 0 in
    let index_insert = lazy (index_inserter ctx table table.indexes) in
    List.iter
      (fun row ->
        check_not_null table row;
        let conflict = try pk_conflict ctx table row with Exit -> false in
        if conflict then begin
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
          Lazy.force index_insert tid row;
          Meter.add_written ctx.meter 1;
          incr inserted
        end)
      rows;
    !inserted

(* Build full-width rows from an INSERT column list + expression tuples. *)
let build_rows ctx (table : Catalog.table) columns exprs_rows =
  let tys = Catalog.column_tys table in
  let ncols = List.length table.columns in
  let positions =
    match columns with
    | None -> List.init ncols Fun.id
    | Some cols -> List.map (Catalog.column_index table) cols
  in
  let defaults =
    Array.of_list
      (List.map
         (fun (c : Ast.column_def) ->
           match c.col_default with
           | Some e -> fun () -> Expr_eval.compile [] ctx.env e [||]
           | None -> fun () -> Datum.Null)
         table.columns)
  in
  List.map
    (fun values ->
      if List.length values <> List.length positions then
        err "INSERT has %d expressions but %d target columns"
          (List.length values) (List.length positions);
      let row = Array.init ncols (fun i -> defaults.(i) ()) in
      List.iter2
        (fun pos (v : Datum.t) ->
          row.(pos) <-
            (try Datum.cast v tys.(pos)
             with Datum.Cast_error m -> raise (Exec_error m)))
        positions values;
      row)
    exprs_rows

let run_insert ctx ~table ~columns ~source ~on_conflict_do_nothing =
  let table =
    match Catalog.find_table_opt ctx.catalog table with
    | Some t -> t
    | None -> err "relation %s does not exist" table
  in
  let value_rows =
    match source with
    | Ast.Values tuples ->
      List.map
        (fun tuple ->
          List.map (fun e -> Expr_eval.compile [] ctx.env e [||]) tuple)
        tuples
    | Ast.Query sel ->
      let _names, rows = run_select ctx sel in
      List.map Array.to_list rows
  in
  let rows = build_rows ctx table columns value_rows in
  insert_rows ctx ~table rows ~on_conflict_do_nothing

let target_rows ctx (table : Catalog.table) where =
  let schema = table_schema ~alias:None table in
  let conjuncts = match where with Some w -> Ast.conjuncts w | None -> [] in
  let all_exprs = conjuncts in
  let pairs = scan_base ctx table ~alias:None ~conjuncts ~all_exprs in
  let filter =
    match where with
    | None -> fun _ -> true
    | Some w -> Expr_eval.eval_bool (Expr_eval.compile schema ctx.env w)
  in
  List.filter (fun (_tid, row) -> filter row) pairs

let run_update ctx ~table ~sets ~where =
  let xid = require_xid ctx in
  let table =
    match Catalog.find_table_opt ctx.catalog table with
    | Some t -> t
    | None -> err "relation %s does not exist" table
  in
  let heap =
    match heap_of table with
    | Some h -> h
    | None -> err "columnar table %s is append-only" table.tbl_name
  in
  acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
  let schema = table_schema ~alias:None table in
  let tys = Catalog.column_tys table in
  let set_fns =
    List.map
      (fun (col, e) ->
        let pos = Catalog.column_index table col in
        (pos, Expr_eval.compile schema ctx.env e))
      sets
  in
  let targets = target_rows ctx table where in
  (* acquire all row locks first so a deadlock surfaces as Would_block *)
  List.iter
    (fun (tid, _) ->
      match tid with
      | Some tid ->
        acquire_lock ctx (Txn.Lock.Row (table.tbl_name, tid)) Txn.Lock.Row_lock
      | None -> ())
    targets;
  let updated = ref 0 in
  let index_insert = lazy (index_inserter ctx table table.indexes) in
  List.iter
    (fun (tid, row) ->
      match tid with
      | None -> ()
      | Some tid ->
        (* re-check the version is still the live one, against the TRUE
           transaction state (never a snapshot override: write conflicts
           are about the latest state). A committed deleter means the row
           vanished under us — skip, like the READ COMMITTED recheck. An
           in-progress deleter is a live write-write conflict: normally
           the row lock prevents ever getting here, but a crash-recovered
           prepared transaction wrote this xmax under locks the restart
           discarded — overwriting it would resurrect the row the in-doubt
           transaction deleted, splitting one logical row in two when the
           recovery daemon commits it. Surface the conflict instead. *)
        (match Storage.Heap.header heap ~tid with
         | Some (_, xmax)
           when xmax <> 0 && (not (ctx.xid = Some xmax))
                && Txn.Manager.status ctx.mgr xmax = Txn.Manager.Committed ->
           ()
         | Some (_, xmax)
           when xmax <> 0 && (not (ctx.xid = Some xmax))
                && Txn.Manager.status ctx.mgr xmax = Txn.Manager.In_progress ->
           raise (Would_block [ xmax ])
         | Some _ ->
           let new_row = Array.copy row in
           List.iter
             (fun (pos, f) ->
               new_row.(pos) <-
                 (try Datum.cast (f row) tys.(pos)
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
                {
                  xid;
                  table = table.tbl_name;
                  old_tid = tid;
                  new_tid;
                  row = new_row;
                });
           Lazy.force index_insert new_tid new_row;
           Meter.add_written ctx.meter 1;
           incr updated
         | None -> ()))
    targets;
  !updated

let run_delete ctx ~table ~where =
  let xid = require_xid ctx in
  let table =
    match Catalog.find_table_opt ctx.catalog table with
    | Some t -> t
    | None -> err "relation %s does not exist" table
  in
  let heap =
    match heap_of table with
    | Some h -> h
    | None -> err "columnar table %s is append-only" table.tbl_name
  in
  acquire_lock ctx (Txn.Lock.Table table.tbl_name) Txn.Lock.Row_exclusive;
  let targets = target_rows ctx table where in
  List.iter
    (fun (tid, _) ->
      match tid with
      | Some tid ->
        acquire_lock ctx (Txn.Lock.Row (table.tbl_name, tid)) Txn.Lock.Row_lock
      | None -> ())
    targets;
  let deleted = ref 0 in
  List.iter
    (fun (tid, _row) ->
      match tid with
      | None -> ()
      | Some tid ->
        (* same recheck as run_update: never overwrite a deleter that is
           committed (row already gone) or still in progress (write-write
           conflict — possibly an in-doubt prepared transaction whose
           locks a crash discarded) *)
        (match Storage.Heap.header heap ~tid with
         | Some (_, xmax)
           when xmax <> 0 && (not (ctx.xid = Some xmax))
                && Txn.Manager.status ctx.mgr xmax = Txn.Manager.Committed ->
           ()
         | Some (_, xmax)
           when xmax <> 0 && (not (ctx.xid = Some xmax))
                && Txn.Manager.status ctx.mgr xmax = Txn.Manager.In_progress ->
           raise (Would_block [ xmax ])
         | _ ->
           if Storage.Heap.delete heap ~xid ~tid then begin
             Txn.Manager.log ctx.mgr
               (Txn.Wal.Delete { xid; table = table.tbl_name; tid });
             Meter.add_written ctx.meter 1;
             incr deleted
           end))
    targets;
  !deleted
