open Sqlfront

type result = Executor.result = {
  columns : string list;
  rows : Datum.t array list;
  affected : int;
  tag : string;
}

exception Session_error of string

type prepared = {
  p_stmt : Ast.statement;  (** shape with [$n] placeholders unbound *)
  p_text : string Lazy.t;  (** its normalized text, deparsed at most once *)
  p_kept : Executor.kept;  (** its plan, built at the first execution *)
}

let prepared ~text stmt = { p_stmt = stmt; p_text = text; p_kept = Executor.keep stmt }

(* A prepared statement with the values of its [$k], and the kept-plan
   statistics its runs count in *)
type bound = { prep : prepared; values : Datum.t list; stats : Executor.plan_stats }

type t = {
  node_name : string;
  catalog : Catalog.t;
  mgr : Txn.Manager.t;
  pool : Storage.Buffer_pool.t;
  meter : Meter.t;
  rng : Random.State.t;
  obs : Obs.t option;  (** shared cluster observability context *)
  mutable clock : float;
  mutable next_session : int;
  mutable epoch : int;  (** bumped on crash: sessions from older epochs are dead *)
  stmts : prepared Stmt_cache.t;  (** the text front door's templates, by skeleton *)
  plans : Executor.plan_stats;  (** other prepared statements' kept plans *)
  template_plans : Executor.plan_stats;  (** templates' kept plans *)
  hooks : hooks;
}

and hooks = {
  mutable planner_hook :
    (session -> ?hit:prepared * Datum.t list -> Ast.statement -> result option) option;
  mutable hook_claims : Ast.statement -> bool;
      (** false for a statement the planner hook leaves to the engine
          whatever its parameter values *)
  mutable utility_hook : (session -> Ast.statement -> result option) option;
  mutable copy_hook :
    (session ->
    table:string ->
    columns:string list option ->
    string list ->
    int option)
    option;
  mutable pre_commit : (session -> unit) list;
  mutable post_commit : (session -> unit) list;
  mutable abort_cbs : (session -> unit) list;
  mutable maintenance : (t -> unit) list;
  udfs : (string, session -> Datum.t list -> Datum.t) Hashtbl.t;
}

and session = {
  inst : t;
  sid : int;
  sess_epoch : int;  (** instance epoch at connect time *)
  mutable xid : int option;
  mutable explicit_block : bool;
  mutable failed : bool;  (** aborted block awaiting ROLLBACK *)
  mutable read_mode : Txn.Snapshot.read_mode;
      (** distributed visibility for reads in this session (set per
          statement by the cluster layer; [Latest] = plain MVCC) *)
  mutable pending_commit_ts : Txn.Hlc.timestamp option;
      (** coordinator-assigned commit timestamp for the next
          COMMIT PREPARED on this session (out-of-band 2PC channel) *)
  prepared : (string, prepared) Hashtbl.t;
      (** session-scoped PREPARE registry (PostgreSQL prepared
          statements); holds both SQL PREPAREs and the statements a
          coordinator parsed here through {!exec_bound} *)
}

let err fmt = Printf.ksprintf (fun m -> raise (Session_error m)) fmt

let create ?(seed = 42) ?(buffer_pages = 100_000) ?obs ~name () =
  let meter = Meter.create () in
  (* Fold this node's work counters into the cluster metrics registry:
     they keep their compact record form here and appear as
     engine.<node>.<field> in every snapshot. *)
  (match obs with
   | Some (o : Obs.t) ->
     Obs.Metrics.register_probe o.Obs.metrics (Obs.Metric_names.engine_probe name) (fun () ->
         Meter.to_assoc (Meter.read meter))
   | None -> ());
  {
    node_name = name;
    catalog = Catalog.create ();
    mgr = Txn.Manager.create ();
    pool = Storage.Buffer_pool.create ~capacity:buffer_pages;
    meter;
    rng = Random.State.make [| seed |];
    obs;
    clock = 0.0;
    next_session = 1;
    epoch = 0;
    stmts = Stmt_cache.create (fun tpl key -> prepared ~text:(Lazy.from_val key) tpl);
    plans = Executor.plan_stats ();
    template_plans = Executor.plan_stats ();
    hooks =
      {
        planner_hook = None;
        hook_claims = (fun _ -> false);
        utility_hook = None;
        copy_hook = None;
        pre_commit = [];
        post_commit = [];
        abort_cbs = [];
        maintenance = [];
        udfs = Hashtbl.create 16;
      };
  }

let name t = t.node_name
let catalog t = t.catalog
let txn_manager t = t.mgr
let buffer_pool t = t.pool
let meter t = t.meter
let stmt_cache t = t.stmts
let plan_stats t =
  let a = t.plans and b = t.template_plans in
  { Executor.builds = a.builds + b.builds; runs = a.runs + b.runs;
    planned_runs = a.planned_runs + b.planned_runs;
    invalidations = a.invalidations + b.invalidations }

let template_plan_stats t = { t.template_plans with Executor.builds = t.template_plans.builds }

let connect t =
  let sid = t.next_session in
  t.next_session <- sid + 1;
  {
    inst = t;
    sid;
    sess_epoch = t.epoch;
    xid = None;
    explicit_block = false;
    failed = false;
    read_mode = Txn.Snapshot.Latest;
    pending_commit_ts = None;
    prepared = Hashtbl.create 4;
  }

let session_instance s = s.inst
let session_id s = s.sid
let session_alive s = s.sess_epoch = s.inst.epoch
let in_transaction s = s.explicit_block
let current_xid s = s.xid
let set_read_mode s m = s.read_mode <- m
let read_mode s = s.read_mode
let set_pending_commit_ts s ts = s.pending_commit_ts <- ts
let set_hlc t hlc = Txn.Manager.set_hlc t.mgr hlc

(* --- executor context --- *)

let make_ctx ?(params = [||]) (s : session) : Executor.ctx =
  let t = s.inst in
  (* The xid snapshot always governs local concurrency; the [vis]
     override layers distributed visibility on top (commit timestamps,
     in-doubt blocking). [version_visible] consults status before the
     snapshot, so In_doubt fires before a prepared xid could be
     silently skipped. *)
  let vis =
    match s.read_mode with
    | Txn.Snapshot.Latest -> None
    | Txn.Snapshot.Resolving -> Some (Txn.Manager.status_resolving t.mgr)
    | Txn.Snapshot.At ts -> Some (fun xid -> Txn.Manager.status_at t.mgr ~ts xid)
  in
  {
    Executor.catalog = t.catalog;
    mgr = t.mgr;
    pool = t.pool;
    meter = t.meter;
    snapshot = Txn.Manager.take_snapshot t.mgr;
    xid = s.xid;
    vis;
    now = t.clock;
    rng = t.rng;
    params;
  }


(* --- transaction lifecycle --- *)

let ensure_txn s =
  match s.xid with
  | Some x ->
    (* the deadlock detector may have aborted us underneath *)
    if not (Txn.Manager.is_active s.inst.mgr x) then begin
      s.xid <- None;
      s.explicit_block <- false;
      s.failed <- false;
      List.iter (fun cb -> cb s) s.inst.hooks.abort_cbs;
      err "current transaction was aborted (deadlock or external abort)"
    end;
    x
  | None ->
    let x = Txn.Manager.begin_txn s.inst.mgr in
    s.xid <- Some x;
    (* a stamp armed for a COMMIT PREPARED that never arrived must not
       stamp this transaction's commit *)
    s.pending_commit_ts <- None;
    x

let do_commit s =
  match s.xid with
  | None -> ()
  | Some x ->
    if Txn.Manager.is_active s.inst.mgr x then begin
      List.iter (fun cb -> cb s) s.inst.hooks.pre_commit;
      (* a pre-commit hook that ran 2PC armed its commit timestamp *)
      let ts = s.pending_commit_ts in
      s.pending_commit_ts <- None;
      Txn.Manager.commit ?ts s.inst.mgr x;
      s.xid <- None;
      s.explicit_block <- false;
      List.iter (fun cb -> cb s) s.inst.hooks.post_commit
    end
    else begin
      s.xid <- None;
      s.explicit_block <- false
    end

let do_abort s =
  (match s.xid with
   | Some x when Txn.Manager.is_active s.inst.mgr x ->
     Txn.Manager.abort s.inst.mgr x
   | _ -> ());
  s.xid <- None;
  s.explicit_block <- false;
  s.failed <- false;
  List.iter (fun cb -> cb s) s.inst.hooks.abort_cbs

let ok_result tag = { columns = []; rows = []; affected = 0; tag }

(* --- COPY --- *)

let split_tab line = String.split_on_char '\t' line

let copy_rows_of_lines (table : Catalog.table) columns lines =
  let tys = Catalog.column_tys table in
  let positions =
    match columns with
    | None -> List.init (List.length table.columns) Fun.id
    | Some cols -> List.map (Catalog.column_index table) cols
  in
  List.map
    (fun line ->
      let fields = split_tab line in
      if List.length fields <> List.length positions then
        err "COPY row has %d fields, expected %d" (List.length fields)
          (List.length positions);
      let row = Array.make (List.length table.columns) Datum.Null in
      List.iter2
        (fun pos field ->
          row.(pos) <-
            (try Datum.of_csv_field tys.(pos) field
             with Datum.Cast_error m -> err "COPY: %s" m))
        positions fields;
      row)
    lines

let copy_in_local s ~table ~columns lines =
  let t = s.inst in
  let tbl =
    match Catalog.find_table_opt t.catalog table with
    | Some tbl -> tbl
    | None -> err "relation %s does not exist" table
  in
  Meter.add_copy_rows t.meter (List.length lines);
  let rows = copy_rows_of_lines tbl columns lines in
  let ctx = make_ctx s in
  Executor.insert_rows ctx ~table:tbl rows ~on_conflict_do_nothing:false

(* --- DDL --- *)

let auto_pk_index (t : t) (table : Catalog.table) =
  match table.primary_key, table.store with
  | [], _ | _, Catalog.Columnar_store _ -> ()
  | pk, Catalog.Heap_store _ ->
    let idx =
      {
        Catalog.idx_name = table.tbl_name ^ "_pkey";
        idx_table = table.tbl_name;
        kind =
          Catalog.Btree_index
            {
              columns = pk;
              tree = Storage.Btree.create ~name:(table.tbl_name ^ "_pkey") ();
            };
      }
    in
    Catalog.add_index t.catalog table idx

(* Index every physically stored version (CREATE INDEX and the restart
   rebuild), as writes index each version they make. *)
let index_physical ctx (table : Catalog.table) heap indexes =
  let add = Executor.index_inserter ctx table indexes in
  Storage.Heap.scan_physical heap ~f:(fun tid _hdr row -> add tid row)

let rec exec_utility s (stmt : Ast.statement) : result =
  let t = s.inst in
  let ctx () = make_ctx s in
  match stmt with
  | Ast.Create_table { name; columns; primary_key; if_not_exists; using_columnar }
    ->
    (match Catalog.find_table_opt t.catalog name with
     | Some _ when if_not_exists -> ok_result "CREATE TABLE"
     | Some _ -> err "relation %s already exists" name
     | None ->
       ignore (ensure_txn s);
       let table =
         Catalog.add_table t.catalog ~name ~columns ~primary_key
           ~columnar:using_columnar
       in
       auto_pk_index t table;
       ok_result "CREATE TABLE")
  | Ast.Create_index { name; table; using; key_columns; key_expr; if_not_exists }
    ->
    let tbl =
      match Catalog.find_table_opt t.catalog table with
      | Some tbl -> tbl
      | None -> err "relation %s does not exist" table
    in
    let exists =
      List.exists (fun (i : Catalog.index) -> i.idx_name = name) tbl.indexes
    in
    if exists then
      if if_not_exists then ok_result "CREATE INDEX"
      else err "index %s already exists" name
    else begin
      ignore (ensure_txn s);
      (match
         Txn.Lock.acquire (Txn.Manager.locks t.mgr)
           ~owner:(Option.get s.xid) (Txn.Lock.Table table)
           Txn.Lock.Access_exclusive
       with
       | Txn.Lock.Granted -> ()
       | Txn.Lock.Blocked holders -> raise (Executor.Would_block holders));
      let kind =
        match using, key_expr with
        | Ast.Gin_trgm, Some expr ->
          Catalog.Gin_index { expr; gin = Storage.Gin.create ~name () }
        | Ast.Gin_trgm, None -> err "GIN index needs an expression key"
        | Ast.Btree, _ ->
          Catalog.Btree_index
            { columns = key_columns; tree = Storage.Btree.create ~name () }
      in
      let idx = { Catalog.idx_name = name; idx_table = table; kind } in
      (match tbl.store with
       | Catalog.Columnar_store _ -> err "indexes on columnar tables are not supported"
       | Catalog.Heap_store heap -> index_physical (ctx ()) tbl heap [ idx ]);
      Catalog.add_index t.catalog tbl idx;
      ok_result "CREATE INDEX"
    end
  | Ast.Drop_table { name; if_exists } ->
    (match Catalog.find_table_opt t.catalog name with
     | None when if_exists -> ok_result "DROP TABLE"
     | None -> err "relation %s does not exist" name
     | Some tbl ->
       (* WAL records name a table by its name: the fence keeps replay
          from putting the dropped table's rows into a later table of
          that name *)
       (match tbl.store with
        | Catalog.Heap_store _ ->
          ignore (Txn.Wal.append (Txn.Manager.wal t.mgr) (Txn.Wal.Truncate name))
        | Catalog.Columnar_store _ -> ());
       Catalog.drop_table t.catalog name;
       ok_result "DROP TABLE")
  | Ast.Alter_table_add_column { table; column } ->
    let tbl =
      match Catalog.find_table_opt t.catalog table with
      | Some tbl -> tbl
      | None -> err "relation %s does not exist" table
    in
    let default_value =
      match column.col_default with
      | Some e -> Executor.eval_const (ctx ()) e
      | None -> Datum.Null
    in
    Catalog.add_column t.catalog tbl column;
    (match tbl.store with
     | Catalog.Heap_store heap ->
       Storage.Heap.transform heap (fun row ->
           Array.append row [| default_value |])
     | Catalog.Columnar_store _ ->
       err "ALTER on columnar tables is not supported");
    ok_result "ALTER TABLE"
  | Ast.Truncate tables ->
    ignore (ensure_txn s);
    List.iter
      (fun name ->
        let tbl =
          match Catalog.find_table_opt t.catalog name with
          | Some tbl -> tbl
          | None -> err "relation %s does not exist" name
        in
        (match
           Txn.Lock.acquire (Txn.Manager.locks t.mgr)
             ~owner:(Option.get s.xid) (Txn.Lock.Table name)
             Txn.Lock.Access_exclusive
         with
         | Txn.Lock.Granted -> ()
         | Txn.Lock.Blocked holders -> raise (Executor.Would_block holders));
        (match tbl.store with
         | Catalog.Heap_store h ->
           ignore
             (Txn.Wal.append (Txn.Manager.wal t.mgr) (Txn.Wal.Truncate name));
           Storage.Heap.clear h
         | Catalog.Columnar_store c -> Storage.Columnar.clear c);
        List.iter Executor.index_clear tbl.indexes)
      tables;
    ok_result "TRUNCATE"
  | Ast.Vacuum target ->
    let names =
      match target with
      | Some n -> [ n ]
      | None -> Catalog.table_names t.catalog
    in
    let vacuumed = List.fold_left (fun acc n -> acc + vacuum_table t n) 0 names in
    { (ok_result "VACUUM") with affected = vacuumed }
  | _ -> err "not a utility statement"

and vacuum_table t name =
  match Catalog.find_table_opt t.catalog name with
  | None -> 0
  | Some table ->
    (match table.store with
     | Catalog.Columnar_store _ -> 0
     | Catalog.Heap_store heap ->
       let dead =
         Storage.Heap.vacuum heap
           ~oldest:(Txn.Manager.oldest_active_xid t.mgr)
           ~status:(Txn.Manager.status t.mgr)
       in
       (* before any reclaimed slot can be reused *)
       List.iter (Executor.index_bulk_delete t.meter t.pool dead) table.indexes;
       Array.length dead)

(* --- statement dispatch --- *)

let is_utility = function
  | Ast.Create_table _ | Ast.Create_index _ | Ast.Drop_table _
  | Ast.Alter_table_add_column _ | Ast.Truncate _ | Ast.Vacuum _ ->
    true
  | _ -> false

(* SELECT udf(...) with no FROM — the extension UDF calling convention. *)
let udf_call (t : t) (stmt : Ast.statement) =
  match stmt with
  | Ast.Select_stmt
      {
        projections = [ Ast.Proj (Ast.Func (name, args), _) ];
        from = [];
        where = None;
        group_by = [];
        having = None;
        order_by = [];
        limit = None;
        offset = None;
        distinct = false;
      }
    -> (
    match Hashtbl.find_opt t.hooks.udfs name with
    | Some udf -> Some (name, udf, args)
    | None -> None)
  | _ -> None

(* Statement cost classes: transaction control is nearly free, the 2PC
   verbs pay for durable transaction state, and anything a hook routes
   elsewhere only costs parse + shard pruning locally. *)
let charge_statement (s : session) (stmt : Ast.statement) =
  let t = s.inst in
  match stmt with
  | Ast.Begin_txn | Ast.Commit_txn | Ast.Rollback_txn
  | Ast.Prepare_stmt _ | Ast.Deallocate_stmt _ ->
    Meter.add_light_statement t.meter
  | Ast.Prepare_transaction _ | Ast.Commit_prepared _ | Ast.Rollback_prepared _
    ->
    Meter.add_twopc_statement t.meter
  | _ -> ()

(* --- prepared statements (session-scoped, PostgreSQL semantics) --- *)

let preparable = function
  | Ast.Select_stmt _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Call _
    ->
    true
  | _ -> false

let prepare_statement (s : session) ~name (stmt : Ast.statement) =
  if Hashtbl.mem s.prepared name then
    err "prepared statement %s already exists" name;
  if not (preparable stmt) then
    err "PREPARE supports SELECT, INSERT, UPDATE, DELETE and CALL statements";
  Hashtbl.replace s.prepared name (prepared ~text:(lazy (Deparse.statement stmt)) stmt)

let deallocate_statement (s : session) = function
  | None -> Hashtbl.reset s.prepared
  | Some name ->
    if not (Hashtbl.mem s.prepared name) then
      err "prepared statement %s does not exist" name;
    Hashtbl.remove s.prepared name

let prepared_names (s : session) =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) s.prepared [])

let find_prepared (s : session) name =
  match Hashtbl.find_opt s.prepared name with
  | Some p -> p
  | None -> err "prepared statement %s does not exist" name

let execute_values (s : session) (args : Ast.expr list) =
  List.map
    (function
      | Ast.Const d -> d
      | e ->
        (* arbitrary constant expressions: evaluate against an empty row *)
        Expr_eval.eval
          {
            Expr_eval.rng = s.inst.rng;
            now = s.inst.clock;
            subquery = (fun _ -> err "EXECUTE arguments cannot contain subqueries");
          }
          e)
    args

(* Resolve EXECUTE to the prepared statement plus evaluated argument
   datums. Hooks call this too, so name resolution and argument
   evaluation have exactly one implementation. *)
let resolve_execute (s : session) ~name ~(args : Ast.expr list) =
  (find_prepared s name, execute_values s args)

let is_data_stmt = function
  | Ast.Select_stmt _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ -> true
  | _ -> false

(* Fail as binding [values] into [p]'s statement would, before anything
   runs: a [$k] with no value. *)
let check_arity ~name p values =
  match Executor.first_unbound p.p_kept (List.length values) with
  | Some i -> err "no value for parameter $%d in prepared statement %s" i name
  | None -> ()

let run_kept s { prep; values; stats } =
  Executor.run_kept stats prep.p_kept (make_ctx ~params:(Array.of_list values) s)

(* [bound], when given, is [stmt] ([bound.prep]'s statement, a data
   statement no UDF calls) with the values of its [$k]. *)
let rec exec_ast_unspanned ?bound (s : session) (stmt : Ast.statement) : result =
  let t = s.inst in
  if not (session_alive s) then
    err "session %d on %s died with the node" s.sid t.node_name;
  charge_statement s stmt;
  if s.failed then begin
    match stmt with
    | Ast.Rollback_txn | Ast.Commit_txn ->
      do_abort s;
      ok_result "ROLLBACK"
    | _ -> err "current transaction is aborted, commands ignored until ROLLBACK"
  end
  else
    match stmt with
    | Ast.Begin_txn ->
      if s.explicit_block then err "already in a transaction block";
      ignore (ensure_txn s);
      s.explicit_block <- true;
      ok_result "BEGIN"
    | Ast.Commit_txn ->
      do_commit s;
      ok_result "COMMIT"
    | Ast.Rollback_txn ->
      do_abort s;
      ok_result "ROLLBACK"
    | Ast.Prepare_transaction gid ->
      (match s.xid with
       | None -> err "PREPARE TRANSACTION requires a transaction block"
       | Some x ->
         Txn.Manager.prepare t.mgr x ~gid;
         s.xid <- None;
         s.explicit_block <- false;
         ok_result "PREPARE TRANSACTION")
    | Ast.Commit_prepared gid ->
      (try
         let ts = s.pending_commit_ts in
         s.pending_commit_ts <- None;
         Txn.Manager.commit_prepared ?ts t.mgr ~gid;
         ok_result "COMMIT PREPARED"
       with Txn.Manager.No_such_prepared g ->
         err "prepared transaction %s does not exist" g)
    | Ast.Rollback_prepared gid ->
      (try
         Txn.Manager.rollback_prepared t.mgr ~gid;
         ok_result "ROLLBACK PREPARED"
       with Txn.Manager.No_such_prepared g ->
         err "prepared transaction %s does not exist" g)
    | Ast.Copy_from _ -> err "COPY FROM STDIN requires copy_in with data"
    | Ast.Prepare_stmt { pname; pstmt } ->
      prepare_statement s ~name:pname pstmt;
      ok_result "PREPARE"
    | Ast.Deallocate_stmt target ->
      deallocate_statement s target;
      ok_result "DEALLOCATE"
    | stmt -> exec_data_stmt ?bound s stmt

and exec_data_stmt ?bound s stmt =
  let t = s.inst in
  let run () =
    (* UDF interception first: SELECT create_distributed_table(...) *)
    match udf_call t stmt with
    | Some (name, f, args) ->
      Meter.add_statement t.meter;
      ignore (ensure_txn s);
      let ctx = make_ctx s in
      let values = List.map (Executor.eval_const ctx) args in
      let v = f s values in
      { columns = [ name ]; rows = [ [| v |] ]; affected = 0; tag = "SELECT" }
    | None ->
      if is_utility stmt then begin
        Meter.add_statement t.meter;
        match t.hooks.utility_hook with
        | Some hook ->
          (match hook s stmt with
           | Some r -> r
           | None -> exec_utility s stmt)
        | None -> exec_utility s stmt
      end
      else begin
        (* planner hook; a routed statement only costs the local node its
           parse + shard pruning, the target executes it in full *)
        ignore (ensure_txn s);
        let routed =
          match t.hooks.planner_hook with
          | Some hook when Option.is_none bound || t.hooks.hook_claims stmt ->
            hook s ?hit:(Option.map (fun b -> (b.prep, b.values)) bound) stmt
          | _ -> None
        in
        match routed, stmt with
        | Some r, Ast.Execute_stmt _ ->
          (* the plan-cache dispatch meters itself: a cache hit charges a
             bound execute, a build/bypass a routed statement *)
          r
        | Some r, _ ->
          Meter.add_routed_statement t.meter;
          r
        | None, _ ->
          (match stmt with
           | Ast.Execute_stmt _ ->
             (* no parse either way: the AST was stored at PREPARE *)
             Meter.add_light_statement t.meter
           | _ -> Meter.add_statement t.meter);
          exec_builtin ?bound s stmt
      end
  in
  let fail m =
    if s.explicit_block then s.failed <- true else do_abort s;
    raise (Session_error m)
  in
  try
    let r = run () in
    if not s.explicit_block then do_commit s;
    r
  with
  | Executor.Would_block _ as e ->
    (* statement can be retried; transaction stays open *)
    raise e
  | Txn.Manager.In_doubt _ as e ->
    (* the read hit a prepared distributed transaction it cannot decide
       about; the caller resolves and retries. A transaction block stays
       open; an implicit one ends here, as after any error, or a caller
       that gives up instead would leave its locks held on an idle
       connection *)
    if not s.explicit_block then do_abort s;
    raise e
  | Executor.Exec_error m | Expr_eval.Eval_error m | Session_error m -> fail m
  | Catalog.No_such_table n -> fail (Printf.sprintf "relation %s does not exist" n)

(* A [bound] data statement runs from its kept plan, any other is bound;
   an EXECUTE no hook claimed runs its prepared statement the same way. *)
and exec_builtin ?bound s stmt : result =
  match stmt, bound with
  | (Ast.Select_stmt _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _), Some b -> run_kept s b
  | _, Some { prep; values; _ } -> exec_builtin s (Ast.bind_params values prep.p_stmt)
  | (Ast.Select_stmt _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _), None ->
    Executor.run (Executor.prepare s.inst.catalog stmt) (make_ctx s)
  | Ast.Call { proc; args }, None ->
    (* stored procedures are registered as UDFs; CALL is an alternative
       calling convention for them *)
    let t = s.inst in
    (match Hashtbl.find_opt t.hooks.udfs proc with
     | Some f ->
       ignore (f s (List.map (Executor.eval_const (make_ctx s)) args));
       ok_result "CALL"
     | None -> err "procedure %s does not exist" proc)
  | Ast.Execute_stmt { ename; eargs }, None ->
    let prep, values = resolve_execute s ~name:ename ~args:eargs in
    check_arity ~name:ename prep values;
    exec_builtin ~bound:{ prep; values; stats = s.inst.plans } s prep.p_stmt
  | _ -> err "unsupported statement"

let exec_utility_local s stmt = exec_utility s stmt

(* Local execution: errors surface as on the wire, and the session's
   state is left to the statement that dispatched this one. *)
let in_local_txn s f =
  if not (session_alive s) then
    err "session %d on %s died with the node" s.sid s.inst.node_name;
  ignore (ensure_txn s);
  try f () with
  | Executor.Exec_error m | Expr_eval.Eval_error m -> raise (Session_error m)
  | Catalog.No_such_table n -> err "relation %s does not exist" n

let exec_local s stmt =
  in_local_txn s (fun () ->
      Meter.add_statement s.inst.meter;
      if is_utility stmt then exec_utility s stmt else exec_builtin s stmt)

let exec_local_kept s prep values =
  in_local_txn s (fun () ->
      Meter.add_statement s.inst.meter;
      run_kept s { prep; values; stats = s.inst.plans })

let copy_local s ~table ~columns lines =
  in_local_txn s (fun () -> copy_in_local s ~table ~columns lines)

let stmt_kind : Ast.statement -> string = function
  | Ast.Select_stmt _ -> "select"
  | Ast.Insert _ -> "insert"
  | Ast.Update _ -> "update"
  | Ast.Delete _ -> "delete"
  | Ast.Call _ -> "call"
  | Ast.Begin_txn -> "begin"
  | Ast.Commit_txn -> "commit"
  | Ast.Rollback_txn -> "rollback"
  | Ast.Prepare_transaction _ -> "prepare_transaction"
  | Ast.Commit_prepared _ -> "commit_prepared"
  | Ast.Rollback_prepared _ -> "rollback_prepared"
  | Ast.Copy_from _ -> "copy"
  | Ast.Create_table _ -> "create_table"
  | Ast.Create_index _ -> "create_index"
  | Ast.Drop_table _ -> "drop_table"
  | Ast.Alter_table_add_column _ -> "alter_table"
  | Ast.Truncate _ -> "truncate"
  | Ast.Vacuum _ -> "vacuum"
  | Ast.Prepare_stmt _ -> "prepare"
  | Ast.Execute_stmt _ -> "execute"
  | Ast.Deallocate_stmt _ -> "deallocate"

(* Every statement an instance executes — coordinator or worker, client-
   or extension-issued — nests under the shared trace stack. One branch
   when tracing is off. *)
let exec_stmt ?bound (s : session) (stmt : Ast.statement) : result =
  match s.inst.obs with
  | None -> exec_ast_unspanned ?bound s stmt
  | Some o ->
    Obs.Trace.with_span o.Obs.trace
      ~now:(fun () -> s.inst.clock)
      ~node:s.inst.node_name ~kind:"statement"
      ~tags:[ ("stmt", stmt_kind stmt) ]
      (fun _sp -> exec_ast_unspanned ?bound s stmt)

let exec_ast s stmt = exec_stmt s stmt

(* The one runner of a prepared statement with its values, for a
   statement-cache hit and {!exec_bound}. A data statement that no UDF
   calls reaches the planner hook as its unbound statement with [?hit]
   when the hook claims it, and otherwise runs from its kept plan
   ([exec_builtin], which also serves an EXECUTE no hook claimed); any
   other statement is bound. *)
let exec_prepared s b =
  let stmt = b.prep.p_stmt in
  if is_data_stmt stmt && udf_call s.inst stmt = None then exec_stmt ~bound:b s stmt
  else exec_ast s (Ast.bind_params b.values stmt)

let exec s sql =
  match Stmt_cache.lookup s.inst.stmts sql with
  | Stmt_cache.Parsed stmt -> exec_ast s stmt
  | Stmt_cache.Hit (prep, values) ->
    exec_prepared s { prep; values; stats = s.inst.template_plans }

(* The extended query protocol's Close / Parse / Bind / Execute, arriving
   in one message. A repeated Parse replaces and an unknown Close is
   ignored: the sender re-sends both when it lost a reply. *)
let exec_bound s ~close ?parse ~name values =
  List.iter (Hashtbl.remove s.prepared) close;
  Option.iter
    (fun text ->
      Hashtbl.replace s.prepared name
        (prepared ~text:(Lazy.from_val text) (Parser.parse_statement text)))
    parse;
  let prep = find_prepared s name in
  check_arity ~name prep values;
  exec_prepared s { prep; values; stats = s.inst.plans }

let copy_in s ~table ~columns lines =
  let t = s.inst in
  if not (session_alive s) then
    err "session %d on %s died with the node" s.sid t.node_name;
  ignore (ensure_txn s);
  let handled =
    match t.hooks.copy_hook with
    | Some hook -> hook s ~table ~columns lines
    | None -> None
  in
  let n =
    match handled with
    | Some n -> n
    | None -> copy_in_local s ~table ~columns lines
  in
  if not s.explicit_block then do_commit s;
  n

(* --- hooks registration --- *)

let set_planner_hook t ~claims f =
  t.hooks.planner_hook <- Some f;
  t.hooks.hook_claims <- claims
let set_utility_hook t f = t.hooks.utility_hook <- Some f
let set_copy_hook t f = t.hooks.copy_hook <- Some f
let register_udf t name f = Hashtbl.replace t.hooks.udfs name f
let on_pre_commit t f = t.hooks.pre_commit <- t.hooks.pre_commit @ [ f ]
let on_post_commit t f = t.hooks.post_commit <- t.hooks.post_commit @ [ f ]
let on_abort t f = t.hooks.abort_cbs <- t.hooks.abort_cbs @ [ f ]
let add_maintenance t f = t.hooks.maintenance <- t.hooks.maintenance @ [ f ]

(* --- maintenance --- *)

let autovacuum_threshold = 50

let maintenance_tick t =
  (match t.obs with
   | Some o -> Obs.Metrics.inc o.Obs.metrics Obs.Metric_names.engine_maintenance_ticks
   | None -> ());
  (* 1. local deadlock detection: abort the youngest transaction in a cycle *)
  (match Txn.Lock.detect_deadlock (Txn.Manager.locks t.mgr) with
   | Some members ->
     let youngest = List.fold_left max 0 members in
     if Txn.Manager.is_active t.mgr youngest then
       Txn.Manager.abort t.mgr youngest
   | None -> ());
  (* 2. autovacuum, which also merges every GIN pending list *)
  List.iter
    (fun name ->
      match Catalog.find_table_opt t.catalog name with
      | Some ({ store = Catalog.Heap_store heap; _ } as table) ->
        if Storage.Heap.dead_estimate heap > autovacuum_threshold then
          ignore (vacuum_table t name);
        List.iter (Executor.index_cleanup t.pool) table.indexes
      | _ -> ())
    (Catalog.table_names t.catalog);
  (* 3. registered daemons (Citus: 2PC recovery, distributed deadlocks) *)
  List.iter (fun f -> f t) t.hooks.maintenance

let create_restore_point t name =
  ignore (Txn.Wal.append (Txn.Manager.wal t.mgr) (Txn.Wal.Restore_point name))

(* --- crash / recovery --- *)

let crash t = t.epoch <- t.epoch + 1

let abort_session s =
  (* Server-side abort: the client vanished (e.g. the coordinator crashed
     mid-transaction), so the node rolls the open transaction back exactly
     as PostgreSQL does when a backend loses its socket. *)
  if session_alive s then do_abort s

(* Replay rows logged before an ALTER TABLE ADD COLUMN are shorter than
   the current schema; pad with NULLs (the engine logs rows as they were
   at write time, and ALTER's backfill is a heap rewrite that is not
   itself WAL-logged in this model). *)
let pad_row (table : Catalog.table) row =
  let want = List.length table.columns in
  let have = Array.length row in
  if have >= want then row
  else Array.append row (Array.make (want - have) Datum.Null)

let recover_from_wal t =
  (* 1. transaction state (clog / prepared / locks) from the WAL *)
  Txn.Manager.crash_recover t.mgr;
  (* 2. wipe volatile storage. Heap contents are rebuilt from the log
     and indexes from the heaps (step 4); columnar stores model immutable
     stripes flushed straight to disk (§2.5), so they are treated as
     durable and left intact. *)
  List.iter
    (fun name ->
      match Catalog.find_table_opt t.catalog name with
      | Some tbl ->
        (match tbl.store with
         | Catalog.Heap_store heap -> Storage.Heap.clear heap
         | Catalog.Columnar_store _ -> ());
        List.iter Executor.index_clear tbl.indexes
      | None -> ())
    (Catalog.table_names t.catalog);
  (* 3. redo pass: reapply every logged heap change at its original tid
     (tids must be stable because later records and index entries refer
     to them). Visibility still comes from the rebuilt clog, so rows from
     crashed transactions replay but read as aborted. *)
  let heap_of table_name =
    match Catalog.find_table_opt t.catalog table_name with
    | Some ({ store = Catalog.Heap_store heap; _ } as tbl) -> Some (tbl, heap)
    | Some { store = Catalog.Columnar_store _; _ } | None -> None
  in
  List.iter
    (fun (_, record) ->
      match record with
      | Txn.Wal.Insert { xid; table; tid; row } ->
        (match heap_of table with
         | Some (tbl, heap) ->
           Storage.Heap.insert_at heap ~tid ~xid (pad_row tbl row)
         | None -> ())
      | Txn.Wal.Update { xid; table; old_tid; new_tid; row } ->
        (match heap_of table with
         | Some (tbl, heap) ->
           Storage.Heap.insert_at heap ~tid:new_tid ~xid (pad_row tbl row);
           ignore (Storage.Heap.delete heap ~xid ~tid:old_tid)
         | None -> ())
      | Txn.Wal.Delete { xid; table; tid } ->
        (match heap_of table with
         | Some (_, heap) -> ignore (Storage.Heap.delete heap ~xid ~tid)
         | None -> ())
      | Txn.Wal.Truncate table ->
        (* the indexes stay empty until step 4 *)
        (match heap_of table with
         | Some (_, heap) -> Storage.Heap.clear heap
         | None -> ())
      | Txn.Wal.Begin _ | Txn.Wal.Commit _ | Txn.Wal.Abort _
      | Txn.Wal.Prepare _ | Txn.Wal.Commit_prepared _
      | Txn.Wal.Rollback_prepared _ | Txn.Wal.Commit_ts _
      | Txn.Wal.Restore_point _ | Txn.Wal.Xid_floor _ -> ())
    (Txn.Wal.records (Txn.Manager.wal t.mgr));
  (* 3b. re-acquire the locks of recovered prepared transactions, as
     PostgreSQL does from its two-phase state files. [crash_recover]
     reset the lock table, but an in-doubt transaction is still live: its
     locks must keep blocking writers until COMMIT/ROLLBACK PREPARED, or
     a post-restart update could overwrite its xmax stamps and split a
     logical row in two when the recovery daemon commits it. The WAL
     records of each still-prepared xid name exactly the tables and tids
     it wrote. Fresh off a reset, every acquisition is granted. *)
  let still_prepared =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (_gid, xid) -> Hashtbl.replace tbl xid ())
      (Txn.Manager.prepared_transactions t.mgr);
    tbl
  in
  if Hashtbl.length still_prepared > 0 then begin
    let locks = Txn.Manager.locks t.mgr in
    let relock ~owner table tids =
      (* on a freshly reset lock table these are all granted: row locks
         of distinct prepared transactions never overlap (the lock they
         held before the crash kept their write sets disjoint), and
         Row_exclusive table locks do not conflict with each other *)
      (match
         Txn.Lock.acquire locks ~owner (Txn.Lock.Table table)
           Txn.Lock.Row_exclusive
       with
      | Txn.Lock.Granted -> ()
      | Txn.Lock.Blocked _ -> assert false);
      List.iter
        (fun tid ->
          match
            Txn.Lock.acquire locks ~owner
              (Txn.Lock.Row (table, tid))
              Txn.Lock.Row_lock
          with
          | Txn.Lock.Granted -> ()
          | Txn.Lock.Blocked _ ->
            (* both versions of one row rewritten by the same prepared
               transaction land here twice; re-granting to the same
               owner is idempotent, anything else is impossible on a
               reset lock table *)
            assert false)
        tids
    in
    List.iter
      (fun (_, record) ->
        match record with
        | Txn.Wal.Insert { xid; table; tid; _ }
          when Hashtbl.mem still_prepared xid -> relock ~owner:xid table [ tid ]
        | Txn.Wal.Update { xid; table; old_tid; new_tid; _ }
          when Hashtbl.mem still_prepared xid ->
          relock ~owner:xid table [ old_tid; new_tid ]
        | Txn.Wal.Delete { xid; table; tid }
          when Hashtbl.mem still_prepared xid -> relock ~owner:xid table [ tid ]
        | _ -> ())
      (Txn.Wal.records (Txn.Manager.wal t.mgr))
  end;
  (* 4. rebuild indexes over the recovered heaps (all physical versions,
     as in normal operation; vacuum prunes entries for dead ones later) *)
  let s = connect t in
  let ctx = make_ctx s in
  List.iter
    (fun name ->
      match Catalog.find_table_opt t.catalog name with
      | Some ({ store = Catalog.Heap_store heap; _ } as tbl)
        when tbl.indexes <> [] ->
        index_physical ctx tbl heap tbl.indexes
      | _ -> ())
    (Catalog.table_names t.catalog);
  (* 5. cold caches *)
  Storage.Buffer_pool.clear t.pool

let restart t =
  crash t;
  recover_from_wal t
