(* The four workloads: cluster set-up, a seeded op stream, and the
   correctness oracle each op's result is checked against.

   The seed drives a bench-side Random.State; the cluster only ever
   receives the generated SQL, prepared-statement arguments and COPY
   lines. Every workload runs one client session in a closed loop with
   zero think time. *)

type cls = Read | Write

type call =
  | Sql of string  (** ad-hoc SQL text through [Engine.Instance.exec] *)
  | Execute of string * Datum.t list  (** [Citus.Session.execute] *)
  | Copy of string * string list
      (** table and COPY lines, through [Engine.Instance.copy_in] *)

type op = {
  cls : cls;
  kind : string;
      (** transaction kind within the class; a class's p50 combines its
          kinds' medians *)
  call : call;
  text : string;
      (** SQL text the ad-hoc path parses (replayed through the parser and
          planner when traced); [""] for COPY *)
  shape : string;  (** plan-cache shape with [$k] placeholders; [""] for COPY *)
  pk : string * Datum.t list;
      (** a primary-key lookup this op implies (table, key columns): the
          input of the B-tree and heap replays *)
  wal : unit -> Txn.Wal.record list;  (** records of the op's write shape *)
  check : Engine.Instance.result -> string option;
      (** oracle: [Some reason] when the result is wrong *)
  commit : unit -> unit;  (** the op succeeded: advance the shadow state *)
  lost : unit -> unit;
      (** the op raised: its effect is unknown, stop vouching for what it
          touched *)
}

type env = {
  db : Workloads.Db.t;
  api : Citus.Api.t;
  session : Engine.Instance.session;
  next : unit -> op;
  final_check : unit -> string option;  (** oracle run after the last op *)
  neutral : string -> string;
      (** value-neutral single-row UPDATE of the row with the given key
          literal (the 2PC and local-commit probes) *)
  neutral_keys : string * string;  (** two key literals placed on different nodes *)
  housekeeping : unit -> unit;
      (** runs after every op, untimed like maintenance (the analytics
          workload's retention) *)
}

type t = {
  name : string;
  setup : seed:int -> scale:float -> env;
  warmup : int;  (** ops run at set-up time, before anything is timed *)
  maint_every : int;  (** [Api.maintenance] period, in ops *)
  count_window : int;  (** ops whose counters form the per-op counts *)
  model_clients : int;  (** closed-loop clients of the paper-testbed model *)
  commit_probe_every : int;
      (** traced ops between commit probes; slower workloads probe more
          often to gather comparable sample counts *)
  read_tail : float;  (** highest percentile with >= 10 samples beyond it *)
  write_tail : float;
}

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* Draw from a deck holding each item once, reshuffled when exhausted:
   uniform in the long run, and exact shares over every pass, so the
   mix does not drift with the seed. *)
let deck rng items =
  let a = Array.of_list items in
  let pos = ref (Array.length a) in
  fun () ->
    if !pos >= Array.length a then begin
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      pos := 0
    end;
    let x = a.(!pos) in
    incr pos;
    x

(* A deck of [items] per key, each shuffled on its key's first draw. *)
let keyed_deck rng items =
  let decks = Hashtbl.create 64 in
  fun key ->
    match Hashtbl.find_opt decks key with
    | Some d -> d ()
    | None ->
      let d = deck rng items in
      Hashtbl.replace decks key d;
      d ()

let exec_sql session sql = ignore (Engine.Instance.exec session sql)

let no_wal () = []

(* Two values of [table]'s distribution column whose shards sit on
   different nodes, drawn from [candidates] in order. *)
let split_keys (api : Citus.Api.t) ~table candidates =
  let node v =
    let sh = Citus.Metadata.shard_for_value api.Citus.Api.metadata ~table v in
    Citus.Metadata.placement api.Citus.Api.metadata sh.Citus.Metadata.shard_id
  in
  match candidates with
  | [] -> invalid_arg "split_keys: no candidates"
  | first :: rest ->
    let n0 = node first in
    (match List.find_opt (fun v -> node v <> n0) rest with
     | Some v -> (Datum.to_sql_literal first, Datum.to_sql_literal v)
     | None -> invalid_arg "split_keys: every candidate on one node")

let load_lines session ~table ~batch lines =
  let rec take n = function
    | x :: rest when n > 0 ->
      let chunk, rest = take (n - 1) rest in
      (x :: chunk, rest)
    | rest -> ([], rest)
  in
  let rec go = function
    | [] -> ()
    | lines ->
      let chunk, rest = take batch lines in
      let n = Engine.Instance.copy_in session ~table ~columns:None chunk in
      if n <> List.length chunk then
        failwith (Printf.sprintf "COPY into %s loaded %d of %d rows" table n
                    (List.length chunk));
      go rest
  in
  go lines

(* --- YCSB workload A: 50/50 reads and single-field updates over uniform
   keys, on a table about three times the workers' buffer pools --- *)

let ycsb_fields = 10

let ycsb_field_length = 20

let payload rng =
  String.init ycsb_field_length (fun _ ->
      Char.chr (Char.code 'a' + Random.State.int rng 26))

let ycsb_setup ~prepared ~seed ~scale =
  let rows = scaled scale 50_000 in
  let db =
    Workloads.Db.citus ~buffer_pages:64 ~shard_count:32 ~workers:4 ()
  in
  let api = Option.get db.Workloads.Db.citus in
  let session = db.Workloads.Db.session in
  let rng = Random.State.make [| seed |] in
  exec_sql session
    (Printf.sprintf "CREATE TABLE usertable (ycsb_key bigint PRIMARY KEY, %s)"
       (String.concat ", "
          (List.init ycsb_fields (fun f -> Printf.sprintf "field%d text" f))));
  Citus.Api.create_distributed_table api ~table:"usertable" ~column:"ycsb_key"
    ();
  (* shadow.(k - 1) holds the values the benchmark last wrote to key k *)
  let shadow =
    Array.init rows (fun _ -> Array.init ycsb_fields (fun _ -> payload rng))
  in
  let unknown = Array.make rows false in
  load_lines session ~table:"usertable" ~batch:500
    (List.init rows (fun i ->
         String.concat "\t"
           (string_of_int (i + 1) :: Array.to_list shadow.(i))));
  let read_shape = "SELECT * FROM usertable WHERE ycsb_key = $1" in
  let update_shape f =
    Printf.sprintf "UPDATE usertable SET field%d = $1 WHERE ycsb_key = $2" f
  in
  if prepared then begin
    Citus.Session.prepare session ~name:"ycsb_read" read_shape;
    for f = 0 to ycsb_fields - 1 do
      Citus.Session.prepare session
        ~name:(Printf.sprintf "ycsb_update%d" f)
        (update_shape f)
    done
  end;
  let row_of key =
    Array.append [| Datum.Int key |]
      (Array.map (fun v -> Datum.Text v) shadow.(key - 1))
  in
  (* keys are dealt from a deck, so every node gets its shards' share of
     the ops, whatever the seed: the modelled throughput is set by the
     busiest node, and random keys spread it by 0.5% over ten seeds *)
  let next_key = deck rng (List.init rows (fun i -> i + 1)) in
  let next () =
    let key = next_key () in
    let pk = ("usertable", [ Datum.Int key ]) in
    if Random.State.bool rng then
      let text = Printf.sprintf "SELECT * FROM usertable WHERE ycsb_key = %d" key in
      {
        cls = Read;
        kind = "read";
        call =
          (if prepared then Execute ("ycsb_read", [ Datum.Int key ]) else Sql text);
        text;
        shape = read_shape;
        pk;
        wal = no_wal;
        check =
          (fun r ->
            if unknown.(key - 1) then None
            else
              match r.Engine.Instance.rows with
              | [ row ]
                when Array.length row = ycsb_fields + 1
                     && Array.for_all2 Datum.equal row (row_of key) ->
                None
              | rows ->
                Some
                  (Printf.sprintf "key %d: %d rows, not the last written values"
                     key (List.length rows)));
        commit = ignore;
        lost = ignore;
      }
    else
      let f = Random.State.int rng ycsb_fields in
      let v = payload rng in
      let text =
        Printf.sprintf "UPDATE usertable SET field%d = '%s' WHERE ycsb_key = %d"
          f v key
      in
      {
        cls = Write;
        kind = "update";
        call =
          (if prepared then
             Execute
               (Printf.sprintf "ycsb_update%d" f, [ Datum.Text v; Datum.Int key ])
           else Sql text);
        text;
        shape = update_shape f;
        pk;
        wal =
          (fun () ->
            let row = row_of key in
            row.(f + 1) <- Datum.Text v;
            [
              Txn.Wal.Begin 1;
              Txn.Wal.Update
                { xid = 1; table = "usertable"; old_tid = key; new_tid = key; row };
              Txn.Wal.Commit 1;
            ]);
        check =
          (fun r ->
            if r.Engine.Instance.affected = 1 then None
            else
              Some
                (Printf.sprintf "update of key %d affected %d rows" key
                   r.Engine.Instance.affected));
        commit = (fun () -> shadow.(key - 1).(f) <- v);
        lost = (fun () -> unknown.(key - 1) <- true);
      }
  in
  {
    db;
    api;
    session;
    next;
    final_check = (fun () -> None);
    housekeeping = ignore;
    neutral =
      (fun k ->
        Printf.sprintf "UPDATE usertable SET field0 = field0 WHERE ycsb_key = %s" k);
    neutral_keys =
      split_keys api ~table:"usertable"
        (List.init (min rows 64) (fun i -> Datum.Int (i + 1)));
  }

let ycsb ~name ~prepared =
  {
    name;
    setup = ycsb_setup ~prepared;
    warmup = 2_000;
    maint_every = 2_000;
    count_window = 50_000;
    model_clients = 256;
    commit_probe_every = 50;
    read_tail = 0.99;
    write_tail = 0.99;
  }

(* --- TPC-C (Figure 6 cluster): warehouses as tenants, procedures
   delegated to the warehouse's worker, 7% remote transactions --- *)

let tpcc_setup ~seed ~scale =
  let cfg =
    {
      Workloads.Tpcc.warehouses = max 4 (scaled scale 64);
      districts_per_warehouse = 4;
      customers_per_district = max 4 (scaled scale 40);
      items = max 20 (scaled scale 600);
      remote_txn_fraction = 0.07;
    }
  in
  (* The data fits the default pools. With Figure 6's 1,000 pages, one
     worker's buffer misses made it the model's bottleneck, and they
     moved the model by up to 4% between seeds. *)
  let db = Workloads.Db.citus ~workers:4 () in
  let api = Option.get db.Workloads.Db.citus in
  Workloads.Tpcc.setup db cfg;
  Workloads.Tpcc.enable_delegation db;
  let rng = Random.State.make [| seed |] in
  (* orders per (warehouse, district, customer): no order exists at load
     time, every successful NEW-ORDER adds one, nothing deletes them *)
  let orders = Hashtbl.create 4096 in
  let unknown = Hashtbl.create 16 in
  let n_orders k = Option.value ~default:0 (Hashtbl.find_opt orders k) in
  let count_is expect (r : Engine.Instance.result) =
    match r.Engine.Instance.rows with
    | [ [| Datum.Int n |] ] when expect n -> None
    | [ [| d |] ] -> Some ("count " ^ Datum.to_display d)
    | rows -> Some (Printf.sprintf "%d rows for a count" (List.length rows))
  in
  let upd table row = Txn.Wal.Update { xid = 1; table; old_tid = 0; new_tid = 0; row } in
  let ins table row = Txn.Wal.Insert { xid = 1; table; tid = 0; row } in
  let txn records () = (Txn.Wal.Begin 1 :: records ()) @ [ Txn.Wal.Commit 1 ] in
  let i x = Datum.Int x in
  (* The standard 45/43/4/4/4 mix, 7% remote, warehouses uniform, and
     8-14 lines per NEW-ORDER. Each kind deals its warehouses from a
     deck of its own, and each warehouse its line counts, so every node
     gets the same work whatever the seed. The modelled throughput is
     set by the busiest node: over ten seeds, one shared warehouse deck
     spread it by 2.4%, and line counts drawn at random by 1.2%. *)
  let repeat n x = List.init n (fun _ -> x) in
  let next_kind =
    deck rng
      (repeat 45 `New_order @ repeat 43 `Payment @ repeat 4 `Delivery
     @ repeat 4 `Order_status @ repeat 4 `Stock_level)
  in
  let next_remote = deck rng (repeat 7 true @ repeat 93 false) in
  let next_warehouse = keyed_deck rng (List.init cfg.warehouses (fun w -> w + 1)) in
  let next_lines = keyed_deck rng (List.init 7 (fun k -> 8 + k)) in
  (* the line count tpcc_new_order derives from its seed argument *)
  let lines_of seed = 8 + Random.State.int (Random.State.make [| seed |]) 7 in
  let next () =
    let kind = next_kind () in
    let w = next_warehouse kind in
    let d = 1 + Random.State.int rng cfg.districts_per_warehouse in
    let c = 1 + Random.State.int rng cfg.customers_per_district in
    let remote = next_remote () in
    let other_w =
      if remote then 1 + ((w + Random.State.int rng (cfg.warehouses - 1)) mod cfg.warehouses)
      else w
    in
    let pk = ("warehouse", [ i w ]) in
    let base =
      {
        cls = Write;
        kind = "";
        call = Sql "";
        text = "";
        shape = "";
        pk;
        wal = no_wal;
        check = (fun _ -> None);
        commit = ignore;
        lost = ignore;
      }
    in
    let sql kind text = { base with kind; call = Sql text; text } in
    match kind with
    | `New_order ->
      let lines = next_lines w in
      let rec seed () =
        let s = (Random.State.int rng 1_000_000 * 2) + if remote then 1 else 0 in
        if lines_of s = lines then s else seed ()
      in
      let seed = seed () in
      let key = (w, d, c) in
      {
        (sql "new_order" (Printf.sprintf "CALL tpcc_new_order(%d, %d, %d, %d)" w d c seed)) with
        shape = "CALL tpcc_new_order($1, $2, $3, $4)";
        wal =
          txn (fun () ->
              [ upd "district" [| i w; i d; i 0 |];
                ins "orders" [| i w; i d; i 0; i c; Datum.Float 0.0 |];
                ins "new_order" [| i w; i d; i 0 |] ]
              @ List.concat
                  (List.init lines (fun l ->
                       [ upd "stock" [| i w; i l; i 0 |];
                         ins "order_line"
                           [| i w; i d; i 0; i l; i l; i w; i 1; Datum.Float 1.0 |] ])));
        commit = (fun () -> Hashtbl.replace orders key (n_orders key + 1));
        lost = (fun () -> Hashtbl.replace unknown key ());
      }
    | `Payment ->
      let amount = 1.0 +. Random.State.float rng 100.0 in
      {
        (sql "payment"
           (Printf.sprintf "CALL tpcc_payment(%d, %d, %d, %d, %d, %f)" w d other_w
              d c amount)) with
        shape = "CALL tpcc_payment($1, $2, $3, $4, $5, $6)";
        wal =
          txn (fun () ->
              [ upd "warehouse" [| i w; Datum.Text "wh"; Datum.Float amount |];
                upd "district" [| i w; i d; Datum.Text "d"; Datum.Float amount; i 0 |];
                upd "customer"
                  [| i other_w; i d; i c; Datum.Text "cust"; Datum.Float amount |] ]);
      }
    | `Delivery ->
      {
        (sql "delivery" (Printf.sprintf "CALL tpcc_delivery(%d)" w)) with
        shape = "CALL tpcc_delivery($1)";
        wal =
          txn (fun () ->
              List.concat
                (List.init cfg.districts_per_warehouse (fun d ->
                     [ Txn.Wal.Delete { xid = 1; table = "new_order"; tid = d };
                       upd "customer"
                         [| i w; i (d + 1); i 0; Datum.Text "cust"; Datum.Float 0.0 |] ])));
      }
    | `Order_status ->
      let key = (w, d, c) in
      {
        (sql "order_status"
           (Printf.sprintf
              "SELECT count(*) FROM orders WHERE o_w_id = %d AND o_d_id = %d AND o_c_id = %d"
              w d c)) with
        cls = Read;
        shape =
          "SELECT count(*) FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_c_id = $3";
        check =
          (fun r ->
            if Hashtbl.mem unknown key then None
            else count_is (fun n -> n = n_orders key) r);
      }
    | `Stock_level ->
      {
        (sql "stock_level"
           (Printf.sprintf
              "SELECT count(*) FROM stock WHERE s_w_id = %d AND s_quantity < 25" w)) with
        cls = Read;
        shape = "SELECT count(*) FROM stock WHERE s_w_id = $1 AND s_quantity < 25";
        check = count_is (fun n -> n >= 0 && n <= cfg.items);
      }
  in
  {
    db;
    api;
    session = db.Workloads.Db.session;
    next;
    final_check =
      (fun () ->
        if Workloads.Tpcc.orders_match_district_counters db cfg then None
        else Some "orders do not match the district counters");
    neutral =
      (fun k -> Printf.sprintf "UPDATE warehouse SET w_ytd = w_ytd WHERE w_id = %s" k);
    neutral_keys =
      split_keys api ~table:"warehouse"
        (List.init cfg.warehouses (fun w -> Datum.Int (w + 1)));
    housekeeping = ignore;
  }

let tpcc =
  {
    name = "tpcc_delegated";
    setup = tpcc_setup;
    warmup = 200;
    maint_every = 500;
    count_window = 6_400;
    model_clients = 250;
    commit_probe_every = 10;
    read_tail = 0.95;
    write_tail = 0.99;
  }

(* --- Real-time analytics over GitHub events: 8-event COPY batches,
   with the dashboard query after every fifth batch. Retention keeps the
   newest events only, so the table holds as many events as the preload
   all run long: a time-bounded run of a faster program must not earn
   a larger table, and the dashboard's cost stays the same through the
   run. --- *)

let rt_batch = 8

let rt_dashboard_every = 5

let event_cfg events =
  { Workloads.Gharchive.events; days = 7; commits_per_event = 3;
    postgres_fraction = 0.2 }

(* What one COPY line contributes to the dashboard: (day, commits) when
   a commit message mentions postgres. *)
let dashboard_contribution line =
  match String.index_opt line '\t' with
  | None -> None
  | Some tab ->
    let j = Json.parse (String.sub line (tab + 1) (String.length line - tab - 1)) in
    let text k = Option.bind (Json.get_field j k) Json.to_text in
    let messages =
      match Json.get_path j [ "payload"; "commits"; "*"; "message" ] with
      | Some (Json.Arr l) -> List.filter_map Json.to_text l
      | _ -> []
    in
    let mentions m =
      let m = String.lowercase_ascii m in
      let n = String.length m in
      let rec at i = i + 8 <= n && (String.sub m i 8 = "postgres" || at (i + 1)) in
      at 0
    in
    let commits =
      Option.value ~default:0
        (Option.bind (Json.get_path j [ "payload"; "commits" ]) Json.array_length)
    in
    match text "created_at" with
    | Some ts when List.exists mentions messages -> Some (String.sub ts 0 10, commits)
    | _ -> None

let event_id line =
  match String.index_opt line '\t' with
  | Some tab -> String.sub line 0 tab
  | None -> line

let rt_setup ~seed ~scale =
  let db =
    Workloads.Db.citus ~buffer_pages:200_000 ~shard_count:32 ~workers:4 ()
  in
  let api = Option.get db.Workloads.Db.citus in
  Workloads.Gharchive.setup_schema db;
  let rng = Random.State.make [| seed |] in
  let per_day = Hashtbl.create 8 in
  let contributions = Hashtbl.create 1024 in
  let add_to_day day n =
    Hashtbl.replace per_day day (n + Option.value ~default:0 (Hashtbl.find_opt per_day day))
  in
  (* live event ids, oldest first; the two probe rows never expire *)
  let live = Queue.create () in
  let account ?(expires = fun _ -> true) lines =
    List.iter
      (fun line ->
        let id = event_id line in
        if expires id then Queue.push id live;
        match dashboard_contribution line with
        | Some (day, commits) ->
          Hashtbl.replace contributions id (day, commits);
          add_to_day day commits
        | None -> ())
      lines
  in
  let preload =
    Workloads.Gharchive.generate_lines ~seed:(Random.State.bits rng)
      (event_cfg (scaled scale 4_000))
  in
  let session = db.Workloads.Db.session in
  load_lines session ~table:"github_events" ~batch:200 preload;
  let neutral_keys =
    split_keys api ~table:"github_events"
      (List.filteri (fun i _ -> i < 64)
         (List.map (fun l -> Datum.Text (event_id l)) preload))
  in
  let probe_rows = [ fst neutral_keys; snd neutral_keys ] in
  account
    ~expires:(fun id -> not (List.mem (Datum.to_sql_literal (Datum.Text id)) probe_rows))
    preload;
  let retained = Queue.length live in
  let newest = ref (event_id (List.nth preload (List.length preload - 1))) in
  let stale = ref false in
  let expected () =
    List.sort compare
      (Hashtbl.fold (fun day n acc -> [ day; string_of_int n ] :: acc) per_day [])
  in
  let cycle = ref 0 in
  let pending_dashboard = ref false in
  let dashboard () =
    let q = Workloads.Gharchive.dashboard_query in
    {
      cls = Read;
      kind = "dashboard";
      call = Sql q;
      text = q;
      shape = q;
      pk = ("github_events", [ Datum.Text !newest ]);
      wal = no_wal;
      check =
        (fun r ->
          let got =
            List.map
              (fun row -> Array.to_list (Array.map Datum.to_display row))
              r.Engine.Instance.rows
          in
          if !stale || got = expected () then None
          else Some "dashboard differs from the per-day reference");
      commit = ignore;
      lost = ignore;
    }
  in
  let copy () =
    incr cycle;
    if !cycle mod rt_dashboard_every = 0 then pending_dashboard := true;
    let lines =
      Workloads.Gharchive.generate_lines ~seed:(Random.State.bits rng)
        (event_cfg rt_batch)
    in
    {
      cls = Write;
      kind = "copy";
      call = Copy ("github_events", lines);
      text = "";
      shape = "";
      pk = ("github_events", [ Datum.Text (event_id (List.hd lines)) ]);
      wal =
        (fun () ->
          (Txn.Wal.Begin 1
           :: List.map
                (fun line ->
                  Txn.Wal.Insert
                    { xid = 1; table = "github_events"; tid = 0;
                      row = [| Datum.Text (event_id line); Datum.Text line |] })
                lines)
          @ [ Txn.Wal.Commit 1 ]);
      check =
        (fun r ->
          if r.Engine.Instance.affected = rt_batch then None
          else
            Some
              (Printf.sprintf "COPY returned %d for a batch of %d"
                 r.Engine.Instance.affected rt_batch));
      commit =
        (fun () ->
          account lines;
          newest := event_id (List.hd lines));
      lost = (fun () -> stale := true);
    }
  in
  let expire () =
    while Queue.length live > retained do
      let id = Queue.peek live in
      (try
         exec_sql session
           (Printf.sprintf "DELETE FROM github_events WHERE event_id = '%s'" id)
       with e ->
         stale := true;
         raise e);
      ignore (Queue.pop live);
      match Hashtbl.find_opt contributions id with
      | Some (day, commits) ->
        Hashtbl.remove contributions id;
        add_to_day day (-commits);
        if Hashtbl.find_opt per_day day = Some 0 then Hashtbl.remove per_day day
      | None -> ()
    done
  in
  let next () =
    if !pending_dashboard then begin
      pending_dashboard := false;
      dashboard ()
    end
    else copy ()
  in
  {
    db;
    api;
    session;
    next;
    final_check = (fun () -> None);
    neutral =
      (fun k -> Printf.sprintf "UPDATE github_events SET data = data WHERE event_id = %s" k);
    neutral_keys;
    housekeeping = expire;
  }

let rt =
  {
    name = "rt_analytics";
    setup = rt_setup;
    warmup = 12;
    maint_every = 60;
    count_window = 120;
    model_clients = 8;
    commit_probe_every = 1;
    read_tail = 0.90;
    write_tail = 0.95;
  }

let all =
  [
    ycsb ~name:"ycsb_a_adhoc" ~prepared:false;
    ycsb ~name:"ycsb_a_prepared" ~prepared:true;
    tpcc;
    rt;
  ]

let find name = List.find_opt (fun w -> w.name = name) all
