(* Heap MVCC, buffer pool, B-tree, GIN, columnar tests. *)

open Storage

let mgr () = Txn.Manager.create ()

let status m = Txn.Manager.status m

let row i = [| Datum.Int i; Datum.Text (Printf.sprintf "v%d" i) |]

(* --- heap --- *)

let test_heap_insert_visible_after_commit () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x = Txn.Manager.begin_txn m in
  let tid = Heap.insert h ~xid:x (row 1) in
  (* other snapshot before commit: invisible *)
  let snap = Txn.Manager.take_snapshot m in
  Alcotest.(check bool) "invisible to others" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:snap ~my_xid:None = None);
  (* own transaction sees its writes *)
  Alcotest.(check bool) "visible to self" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:snap ~my_xid:(Some x) <> None);
  Txn.Manager.commit m x;
  let snap2 = Txn.Manager.take_snapshot m in
  Alcotest.(check bool) "visible after commit" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:snap2 ~my_xid:None <> None)

let test_heap_aborted_insert_invisible () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x = Txn.Manager.begin_txn m in
  let tid = Heap.insert h ~xid:x (row 1) in
  Txn.Manager.abort m x;
  let snap = Txn.Manager.take_snapshot m in
  Alcotest.(check bool) "aborted invisible" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:snap ~my_xid:None = None)

let test_heap_delete_mvcc () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x1 = Txn.Manager.begin_txn m in
  let tid = Heap.insert h ~xid:x1 (row 1) in
  Txn.Manager.commit m x1;
  (* reader snapshot before the delete commits *)
  let old_snap = Txn.Manager.take_snapshot m in
  let x2 = Txn.Manager.begin_txn m in
  ignore (Heap.delete h ~xid:x2 ~tid);
  Txn.Manager.commit m x2;
  (* old snapshot still sees the row; new one does not *)
  Alcotest.(check bool) "old snapshot sees" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:old_snap ~my_xid:None <> None);
  let new_snap = Txn.Manager.take_snapshot m in
  Alcotest.(check bool) "new snapshot does not" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:new_snap ~my_xid:None = None)

let test_heap_aborted_delete_ignored () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x1 = Txn.Manager.begin_txn m in
  let tid = Heap.insert h ~xid:x1 (row 1) in
  Txn.Manager.commit m x1;
  let x2 = Txn.Manager.begin_txn m in
  ignore (Heap.delete h ~xid:x2 ~tid);
  Txn.Manager.abort m x2;
  let snap = Txn.Manager.take_snapshot m in
  Alcotest.(check bool) "still visible" true
    (Heap.fetch h ~tid ~status:(status m) ~snapshot:snap ~my_xid:None <> None)

let test_heap_scan_counts () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x = Txn.Manager.begin_txn m in
  for i = 1 to 100 do ignore (Heap.insert h ~xid:x (row i)) done;
  Txn.Manager.commit m x;
  let snap = Txn.Manager.take_snapshot m in
  let n = ref 0 in
  Heap.scan h ~status:(status m) ~snapshot:snap ~my_xid:None ~f:(fun _ _ -> incr n);
  Alcotest.(check int) "100 rows" 100 !n

let test_heap_vacuum_reclaims_and_reuses () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x = Txn.Manager.begin_txn m in
  let tids = List.init 10 (fun i -> Heap.insert h ~xid:x (row i)) in
  Txn.Manager.commit m x;
  let x2 = Txn.Manager.begin_txn m in
  List.iter (fun tid -> ignore (Heap.delete h ~xid:x2 ~tid)) tids;
  Txn.Manager.commit m x2;
  let reclaimed =
    Heap.vacuum h ~oldest:(Txn.Manager.oldest_active_xid m) ~status:(status m)
  in
  Alcotest.(check int) "reclaimed" 10 reclaimed;
  (* next insert reuses a freed slot *)
  let x3 = Txn.Manager.begin_txn m in
  let tid = Heap.insert h ~xid:x3 (row 42) in
  Alcotest.(check bool) "slot reused" true (List.mem tid tids);
  Txn.Manager.commit m x3

let test_heap_vacuum_respects_old_snapshots () =
  let m = mgr () in
  let h = Heap.create ~name:"t" () in
  let x = Txn.Manager.begin_txn m in
  let tid = Heap.insert h ~xid:x (row 1) in
  Txn.Manager.commit m x;
  (* a long-running transaction holds back the horizon *)
  let long_running = Txn.Manager.begin_txn m in
  let x2 = Txn.Manager.begin_txn m in
  ignore (Heap.delete h ~xid:x2 ~tid);
  Txn.Manager.commit m x2;
  let reclaimed =
    Heap.vacuum h ~oldest:(Txn.Manager.oldest_active_xid m) ~status:(status m)
  in
  Alcotest.(check int) "nothing reclaimed" 0 reclaimed;
  Txn.Manager.commit m long_running


(* --- model-based MVCC property --- *)

(* Random interleavings of transactions against the heap must satisfy two
   invariants: (1) a snapshot taken at the start always sees exactly the
   initial rows, whatever commits later (repeatable reads under MVCC);
   (2) a fresh snapshot sees exactly the committed-state model. *)
type mvcc_op = Op_insert of int | Op_delete | Op_commit | Op_abort

let mvcc_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Op_insert k) (int_range 100 999);
        return Op_delete;
        return Op_commit;
        return Op_abort;
      ])

let prop_mvcc_model =
  QCheck2.Test.make ~name:"heap MVCC matches a committed-state model" ~count:80
    QCheck2.Gen.(list_size (int_range 1 40) mvcc_op_gen)
    (fun ops ->
      let m = Txn.Manager.create () in
      let h = Heap.create ~name:"t" () in
      let status = Txn.Manager.status m in
      (* initial committed rows 0..9 *)
      let x0 = Txn.Manager.begin_txn m in
      let initial_tids =
        List.init 10 (fun i -> (i, Heap.insert h ~xid:x0 [| Datum.Int i |]))
      in
      Txn.Manager.commit m x0;
      let snap0 = Txn.Manager.take_snapshot m in
      (* committed-state model: key -> tid *)
      let committed = Hashtbl.create 32 in
      List.iter (fun (k, tid) -> Hashtbl.replace committed k tid) initial_tids;
      (* one open transaction at a time, with its pending effects *)
      let open_txn = ref None in
      let visible_keys snap my =
        let out = ref [] in
        Heap.scan h ~status ~snapshot:snap ~my_xid:my ~f:(fun _ row ->
            match row.(0) with
            | Datum.Int k -> out := k :: !out
            | _ -> ());
        List.sort_uniq Int.compare !out
      in
      let model_keys () =
        Hashtbl.fold (fun k _ acc -> k :: acc) committed []
        |> List.sort_uniq Int.compare
      in
      let ok = ref true in
      let apply op =
        match (op, !open_txn) with
        | Op_insert k, _ ->
          let xid, pending =
            match !open_txn with
            | Some (x, p) -> (x, p)
            | None ->
              let x = Txn.Manager.begin_txn m in
              let p = ref ([], []) in
              open_txn := Some (x, p);
              (x, p)
          in
          if not (Hashtbl.mem committed k) then begin
            let tid = Heap.insert h ~xid [| Datum.Int k |] in
            let ins, del = !pending in
            pending := ((k, tid) :: ins, del)
          end
        | Op_delete, Some (xid, pending) ->
          (* delete a random committed row not already pending-deleted *)
          let ins, del = !pending in
          let candidates =
            Hashtbl.fold
              (fun k tid acc ->
                if List.mem_assoc k del then acc else (k, tid) :: acc)
              committed []
          in
          (match candidates with
           | (k, tid) :: _ ->
             ignore (Heap.delete h ~xid ~tid);
             pending := (ins, (k, tid) :: del)
           | [] -> ())
        | Op_delete, None -> ()
        | Op_commit, Some (xid, pending) ->
          Txn.Manager.commit m xid;
          let ins, del = !pending in
          List.iter (fun (k, _) -> Hashtbl.remove committed k) del;
          List.iter (fun (k, tid) -> Hashtbl.replace committed k tid) ins;
          open_txn := None
        | Op_abort, Some (xid, _) ->
          Txn.Manager.abort m xid;
          open_txn := None
        | (Op_commit | Op_abort), None -> ()
      in
      List.iter
        (fun op ->
          apply op;
          (* invariant 1: the old snapshot is stable *)
          if visible_keys snap0 None <> List.init 10 Fun.id then ok := false;
          (* invariant 2: a fresh snapshot sees the model *)
          if visible_keys (Txn.Manager.take_snapshot m) None <> model_keys ()
          then ok := false)
        ops;
      !ok)

(* --- buffer pool --- *)

let page rel no = { Buffer_pool.relation = rel; page_no = no }

let test_pool_hit_miss () =
  let p = Buffer_pool.create ~capacity:2 in
  Alcotest.(check bool) "first access misses" false (Buffer_pool.access p (page "t" 0));
  Alcotest.(check bool) "second hits" true (Buffer_pool.access p (page "t" 0));
  ignore (Buffer_pool.access p (page "t" 1));
  ignore (Buffer_pool.access p (page "t" 2));
  (* page 0 evicted (LRU) *)
  Alcotest.(check bool) "evicted" false (Buffer_pool.access p (page "t" 0));
  let s = Buffer_pool.stats p in
  Alcotest.(check int) "evictions" 2 s.Buffer_pool.evictions

let test_pool_lru_order () =
  let p = Buffer_pool.create ~capacity:2 in
  ignore (Buffer_pool.access p (page "t" 0));
  ignore (Buffer_pool.access p (page "t" 1));
  ignore (Buffer_pool.access p (page "t" 0));
  (* touch 0 *)
  ignore (Buffer_pool.access p (page "t" 2));
  (* evicts 1, not 0 *)
  Alcotest.(check bool) "0 still cached" true (Buffer_pool.access p (page "t" 0))

(* Random accesses against a list-based LRU (most recent first). Relation
   names are rebuilt on every access, equal but not physically equal to
   the pooled ones, and several relations share each page number. *)
type pool_op = Access of int * int * bool | Clear | Reset_stats

let pool_rels = [| "t"; "idx:t"; "t_102"; "gin:t_102" |]

let pool_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 30,
          map3
            (fun r p fresh -> Access (r, p, fresh))
            (int_bound (Array.length pool_rels - 1))
            (int_bound 6) bool );
        (1, return Clear);
        (1, return Reset_stats);
      ])

let prop_pool_matches_lru_list =
  QCheck2.Test.make ~name:"buffer pool = list LRU" ~count:300
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 0 300) pool_op_gen))
    (fun (cap, ops) ->
      let p = Buffer_pool.create ~capacity:cap in
      let lru = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let step op =
        match op with
        | Access (r, no, fresh) ->
          let rel =
            if fresh then Bytes.to_string (Bytes.of_string pool_rels.(r))
            else pool_rels.(r)
          in
          let key = (pool_rels.(r), no) in
          let hit = List.mem key !lru in
          if hit then incr hits
          else begin
            incr misses;
            if List.length !lru >= cap then begin
              lru := List.filteri (fun i _ -> i < cap - 1) !lru;
              incr evictions
            end
          end;
          lru := key :: List.filter (( <> ) key) !lru;
          if Buffer_pool.access p (page rel no) <> hit then
            QCheck2.Test.fail_reportf "%s/%d: expected %s" pool_rels.(r) no
              (if hit then "hit" else "miss")
        | Clear ->
          Buffer_pool.clear p;
          lru := []
        | Reset_stats ->
          Buffer_pool.reset_stats p;
          hits := 0;
          misses := 0;
          evictions := 0
      in
      List.iter
        (fun op ->
          step op;
          let s = Buffer_pool.stats p in
          if
            (s.Buffer_pool.hits, s.misses, s.evictions)
            <> (!hits, !misses, !evictions)
            || Buffer_pool.cached_pages p <> List.length !lru
          then QCheck2.Test.fail_reportf "stats or cached_pages drifted")
        ops;
      true)

let test_scan_accounting () =
  let m = mgr () in
  let h = Heap.create ~name:"t" ~rows_per_page:10 () in
  let x = Txn.Manager.begin_txn m in
  for i = 1 to 100 do ignore (Heap.insert h ~xid:x (row i)) done;
  Txn.Manager.commit m x;
  let snap = Txn.Manager.take_snapshot m in
  let pool = Buffer_pool.create ~capacity:1000 in
  Heap.scan ~pool h ~status:(status m) ~snapshot:snap ~my_xid:None
    ~f:(fun _ _ -> ());
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "10 pages missed" 10 s.Buffer_pool.misses;
  (* second scan: all hits *)
  Heap.scan ~pool h ~status:(status m) ~snapshot:snap ~my_xid:None
    ~f:(fun _ _ -> ());
  let s2 = Buffer_pool.stats pool in
  Alcotest.(check int) "no new misses" 10 s2.Buffer_pool.misses

(* --- btree --- *)

let key i = [| Datum.Int i |]

let test_btree_insert_find () =
  let b = Btree.create ~name:"i" () in
  for i = 0 to 999 do Btree.insert b (key i) i done;
  Alcotest.(check (list int)) "find 500" [ 500 ] (Btree.find_eq b (key 500));
  Alcotest.(check (list int)) "missing" [] (Btree.find_eq b (key 5000));
  Alcotest.(check int) "entries" 1000 (Btree.entry_count b);
  Alcotest.(check bool) "multi-level" true (Btree.depth b > 1)

let test_btree_duplicates () =
  let b = Btree.create ~name:"i" () in
  Btree.insert b (key 1) 10;
  Btree.insert b (key 1) 11;
  Btree.insert b (key 1) 12;
  Alcotest.(check (list int)) "all tids" [ 10; 11; 12 ]
    (List.sort Int.compare (Btree.find_eq b (key 1)))

let test_btree_remove () =
  let b = Btree.create ~name:"i" () in
  Btree.insert b (key 1) 10;
  Btree.insert b (key 1) 11;
  Btree.remove b (key 1) 10;
  Alcotest.(check (list int)) "one left" [ 11 ] (Btree.find_eq b (key 1));
  Btree.remove b (key 1) 11;
  Alcotest.(check (list int)) "empty" [] (Btree.find_eq b (key 1))

let test_btree_range () =
  let b = Btree.create ~name:"i" () in
  for i = 0 to 99 do Btree.insert b (key i) i done;
  let results =
    Btree.range b ~lower:(Btree.Incl (key 10)) ~upper:(Btree.Excl (key 20))
  in
  Alcotest.(check int) "10 results" 10 (List.length results);
  let tids = List.map snd results in
  Alcotest.(check (list int)) "in order" (List.init 10 (fun i -> i + 10)) tids

let test_btree_range_order_random_inserts () =
  let b = Btree.create ~name:"i" () in
  let values = List.init 500 (fun i -> (i * 7919) mod 500) in
  List.iter (fun v -> Btree.insert b (key v) v) values;
  let all = Btree.range b ~lower:Btree.Unbounded ~upper:Btree.Unbounded in
  let keys = List.map (fun (k, _) -> k.(0)) all in
  let sorted = List.sort Datum.compare keys in
  Alcotest.(check bool) "sorted" true (keys = sorted);
  Alcotest.(check int) "all present" 500 (List.length all)

let test_btree_composite_prefix () =
  let b = Btree.create ~name:"i" () in
  for w = 1 to 5 do
    for d = 1 to 10 do
      Btree.insert b [| Datum.Int w; Datum.Int d |] ((w * 100) + d)
    done
  done;
  let results = Btree.prefix b [| Datum.Int 3 |] in
  Alcotest.(check int) "10 entries for w=3" 10 (List.length results);
  List.iter
    (fun (k, _) -> Alcotest.(check bool) "prefix matches" true (k.(0) = Datum.Int 3))
    results

let prop_btree_matches_sorted_assoc =
  QCheck2.Test.make ~name:"btree range = sorted reference" ~count:100
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 50))
    (fun values ->
      let b = Btree.create ~name:"i" ~order:4 () in
      List.iteri (fun i v -> Btree.insert b (key v) i) values;
      let expected =
        List.mapi (fun i v -> (v, i)) values
        |> List.sort (fun (a, i) (b, j) ->
               if a = b then Int.compare i j else Int.compare a b)
      in
      let actual =
        Btree.range b ~lower:Btree.Unbounded ~upper:Btree.Unbounded
        |> List.map (fun (k, tid) ->
               (match k.(0) with Datum.Int v -> v | _ -> -1), tid)
        |> List.sort (fun (a, i) (b, j) ->
               if a = b then Int.compare i j else Int.compare a b)
      in
      expected = actual)

(* --- GIN --- *)

let test_gin_trigrams () =
  let tgs = Gin.trigrams_of "cat" in
  Alcotest.(check bool) "has ' ca'" true (List.mem " ca" tgs);
  Alcotest.(check bool) "has 'cat'" true (List.mem "cat" tgs);
  Alcotest.(check bool) "has 'at '" true (List.mem "at " tgs)

let test_gin_candidates () =
  let g = Gin.create ~name:"g" () in
  ignore (Gin.add g ~tid:1 "fix postgres bug in planner");
  ignore (Gin.add g ~tid:2 "update readme");
  ignore (Gin.add g ~tid:3 "postgresql rocks");
  (match Gin.candidates g "postgres" with
   | Some tids ->
     Alcotest.(check (list int)) "both postgres rows" [ 1; 3 ]
       (List.sort Int.compare tids)
   | None -> Alcotest.fail "pattern long enough");
  (* short pattern cannot use the index *)
  Alcotest.(check bool) "short pattern" true (Gin.candidates g "ab" = None)

let test_gin_remove () =
  let g = Gin.create ~name:"g" () in
  ignore (Gin.add g ~tid:1 "hello world");
  Gin.remove g ~tid:1 "hello world";
  match Gin.candidates g "hello" with
  | Some [] -> ()
  | Some l -> Alcotest.fail (Printf.sprintf "%d stale" (List.length l))
  | None -> Alcotest.fail "unexpected"

let test_gin_case_insensitive () =
  let g = Gin.create ~name:"g" () in
  ignore (Gin.add g ~tid:1 "PostgreSQL Is Great");
  match Gin.candidates g "postgresql" with
  | Some [ 1 ] -> ()
  | _ -> Alcotest.fail "case-insensitive match failed"

(* --- columnar --- *)

let test_columnar_roundtrip () =
  let m = mgr () in
  let c = Columnar.create ~name:"c" ~ncols:2 ~stripe_rows:10 () in
  let x = Txn.Manager.begin_txn m in
  Columnar.append c ~xid:x (List.init 25 (fun i -> row i));
  Txn.Manager.commit m x;
  let snap = Txn.Manager.take_snapshot m in
  let n = ref 0 in
  Columnar.scan c ~status:(status m) ~snapshot:snap ~my_xid:None
    ~columns:[ 0; 1 ] ~f:(fun _ -> incr n);
  Alcotest.(check int) "25 rows" 25 !n;
  Alcotest.(check int) "3 stripes (2 sealed + pending)" 3 (Columnar.stripe_count c)

let test_columnar_projection () =
  let m = mgr () in
  let c = Columnar.create ~name:"c" ~ncols:2 ~stripe_rows:10 () in
  let x = Txn.Manager.begin_txn m in
  Columnar.append c ~xid:x (List.init 10 (fun i -> row i));
  Txn.Manager.commit m x;
  let snap = Txn.Manager.take_snapshot m in
  Columnar.scan c ~status:(status m) ~snapshot:snap ~my_xid:None ~columns:[ 0 ]
    ~f:(fun r ->
      Alcotest.(check bool) "col 1 not materialized" true (Datum.is_null r.(1)))

let test_columnar_stripe_skipping () =
  let m = mgr () in
  let c = Columnar.create ~name:"c" ~ncols:2 ~stripe_rows:10 () in
  let x = Txn.Manager.begin_txn m in
  Columnar.append c ~xid:x (List.init 30 (fun i -> row i));
  Txn.Manager.commit m x;
  let snap = Txn.Manager.take_snapshot m in
  let seen = ref 0 in
  (* rows 0..29 in stripes of 10; predicate v >= 20 can skip 2 stripes *)
  Columnar.scan c ~status:(status m) ~snapshot:snap ~my_xid:None
    ~stripe_predicate:(fun ~mins:_ ~maxs ->
      match maxs.(0) with
      | Datum.Int mx -> mx >= 20
      | _ -> true)
    ~columns:[ 0 ] ~f:(fun _ -> incr seen);
  Alcotest.(check int) "only last stripe scanned" 10 !seen

let test_columnar_uncommitted_invisible () =
  let m = mgr () in
  let c = Columnar.create ~name:"c" ~ncols:2 ~stripe_rows:5 () in
  let x = Txn.Manager.begin_txn m in
  Columnar.append c ~xid:x (List.init 5 (fun i -> row i));
  let snap = Txn.Manager.take_snapshot m in
  let n = ref 0 in
  Columnar.scan c ~status:(status m) ~snapshot:snap ~my_xid:None ~columns:[ 0 ]
    ~f:(fun _ -> incr n);
  Alcotest.(check int) "invisible" 0 !n;
  Txn.Manager.abort m x

let () =
  Alcotest.run "storage"
    [
      ( "heap",
        [
          Alcotest.test_case "insert visibility" `Quick
            test_heap_insert_visible_after_commit;
          Alcotest.test_case "aborted insert" `Quick
            test_heap_aborted_insert_invisible;
          Alcotest.test_case "delete mvcc" `Quick test_heap_delete_mvcc;
          Alcotest.test_case "aborted delete" `Quick
            test_heap_aborted_delete_ignored;
          Alcotest.test_case "scan" `Quick test_heap_scan_counts;
          Alcotest.test_case "vacuum reclaim/reuse" `Quick
            test_heap_vacuum_reclaims_and_reuses;
          Alcotest.test_case "vacuum horizon" `Quick
            test_heap_vacuum_respects_old_snapshots;
          QCheck_alcotest.to_alcotest prop_mvcc_model;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss/evict" `Quick test_pool_hit_miss;
          Alcotest.test_case "lru order" `Quick test_pool_lru_order;
          Alcotest.test_case "scan accounting" `Quick test_scan_accounting;
          QCheck_alcotest.to_alcotest prop_pool_matches_lru_list;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "remove" `Quick test_btree_remove;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "random order" `Quick
            test_btree_range_order_random_inserts;
          Alcotest.test_case "composite prefix" `Quick test_btree_composite_prefix;
          QCheck_alcotest.to_alcotest prop_btree_matches_sorted_assoc;
        ] );
      ( "gin",
        [
          Alcotest.test_case "trigrams" `Quick test_gin_trigrams;
          Alcotest.test_case "candidates" `Quick test_gin_candidates;
          Alcotest.test_case "remove" `Quick test_gin_remove;
          Alcotest.test_case "case insensitive" `Quick test_gin_case_insensitive;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "roundtrip" `Quick test_columnar_roundtrip;
          Alcotest.test_case "projection" `Quick test_columnar_projection;
          Alcotest.test_case "stripe skipping" `Quick
            test_columnar_stripe_skipping;
          Alcotest.test_case "uncommitted invisible" `Quick
            test_columnar_uncommitted_invisible;
        ] );
    ]
