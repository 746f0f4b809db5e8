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
  Alcotest.(check (list int)) "reclaimed, ascending" tids (Array.to_list reclaimed);
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
  Alcotest.(check int) "nothing reclaimed" 0 (Array.length reclaimed);
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
  Btree.insert b (key 2) 12;
  Alcotest.(check int) "held" 1 (Btree.bulk_delete b [| 9; 10 |]);
  Alcotest.(check (list int)) "one left" [ 11 ] (Btree.find_eq b (key 1));
  Alcotest.(check int) "held" 2 (Btree.bulk_delete b [| 11; 12 |]);
  Alcotest.(check (list int)) "empty" [] (Btree.find_eq b (key 1));
  Alcotest.(check int) "no entries" 0 (Btree.entry_count b)

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

(* Reference B-tree: the list-node implementation that the array nodes
   replaced, kept as the oracle. Each node is a sorted key list; probes
   scan separators linearly, pick a child with List.nth and walk leaves
   with List.iter2. Its page touches define the ones the array tree must
   make. *)
module Ref_btree = struct
  type key = Btree.key

  let compare_keys (a : key) (b : key) =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i >= la && i >= lb then 0
      else if i >= la then -1
      else if i >= lb then 1
      else
        let c = Datum.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  type node = { id : int; mutable keys : key list; body : body }

  and body = Leaf of leaf | Internal of { mutable children : node list }

  and leaf = { mutable postings : int list list; mutable next : node option }

  type t = {
    rel : string;
    order : int;
    mutable root : node;
    mutable next_id : int;
    mutable entries : int;
    mutable nodes : int;
  }

  let empty_root () = { id = 0; keys = []; body = Leaf { postings = []; next = None } }

  let create ~name ~order =
    { rel = "idx:" ^ name; order; root = empty_root (); next_id = 1; entries = 0;
      nodes = 1 }

  let fresh_node t keys body =
    let id = t.next_id in
    t.next_id <- id + 1;
    t.nodes <- t.nodes + 1;
    { id; keys; body }

  let touch pool t node =
    Option.iter
      (fun p ->
        ignore (Buffer_pool.access p { Buffer_pool.relation = t.rel; page_no = node.id }))
      pool

  let child_index keys key =
    let rec go i = function
      | [] -> i
      | k :: rest -> if compare_keys key k < 0 then i else go (i + 1) rest
    in
    go 0 keys

  let rec leaf_insert keys postings key tid =
    match keys, postings with
    | [], [] -> ([ key ], [ [ tid ] ])
    | k :: krest, p :: prest ->
      let c = compare_keys key k in
      if c = 0 then (keys, (tid :: p) :: prest)
      else if c < 0 then (key :: keys, [ tid ] :: postings)
      else
        let ks, ps = leaf_insert krest prest key tid in
        (k :: ks, p :: ps)
    | _ -> assert false

  let split_list l n =
    (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)

  let splice l i x =
    let before, after = split_list l i in
    before @ (x :: after)

  let rec insert_rec t node key tid =
    match node.body with
    | Leaf leaf ->
      let keys, postings = leaf_insert node.keys leaf.postings key tid in
      node.keys <- keys;
      leaf.postings <- postings;
      if List.length node.keys > t.order then begin
        let half = List.length node.keys / 2 in
        let lkeys, rkeys = split_list node.keys half in
        let lpost, rpost = split_list leaf.postings half in
        let right = fresh_node t rkeys (Leaf { postings = rpost; next = leaf.next }) in
        node.keys <- lkeys;
        leaf.postings <- lpost;
        leaf.next <- Some right;
        Some (List.hd rkeys, right)
      end
      else None
    | Internal internal ->
      let i = child_index node.keys key in
      (match insert_rec t (List.nth internal.children i) key tid with
       | None -> None
       | Some (sep, right) ->
         node.keys <- splice node.keys i sep;
         internal.children <- splice internal.children (i + 1) right;
         if List.length node.keys > t.order then begin
           let half = List.length node.keys / 2 in
           let lkeys, rest = split_list node.keys half in
           let lchildren, rchildren = split_list internal.children (half + 1) in
           let right_node =
             fresh_node t (List.tl rest) (Internal { children = rchildren })
           in
           node.keys <- lkeys;
           internal.children <- lchildren;
           Some (List.hd rest, right_node)
         end
         else None)

  let rec descend pool t node key =
    touch pool t node;
    match node.body with
    | Leaf _ -> node
    | Internal i -> descend pool t (List.nth i.children (child_index node.keys key)) key

  let postings node = match node.body with Leaf l -> l | Internal _ -> assert false

  let find_eq ?pool t key =
    let leaf = descend pool t t.root key in
    let rec go keys ps =
      match keys, ps with
      | k :: krest, p :: prest ->
        let c = compare_keys k key in
        if c = 0 then p else if c > 0 then [] else go krest prest
      | _ -> []
    in
    go leaf.keys (postings leaf).postings

  (* the executor probed the leaf with find_eq before every insert *)
  let insert ?pool t key tid =
    ignore (find_eq ?pool t key);
    t.entries <- t.entries + 1;
    match insert_rec t t.root key tid with
    | None -> ()
    | Some (sep, right) ->
      t.root <- fresh_node t [ sep ] (Internal { children = [ t.root; right ] })

  let remove t key tid =
    let leaf = descend None t t.root key in
    let l = postings leaf in
    let rec go keys ps =
      match keys, ps with
      | k :: krest, p :: prest ->
        if compare_keys k key = 0 then begin
          let p' = List.filter (fun x -> x <> tid) p in
          if List.length p' < List.length p then t.entries <- t.entries - 1;
          if p' = [] then (krest, prest) else (k :: krest, p' :: prest)
        end
        else
          let ks, ps = go krest prest in
          (k :: ks, p :: ps)
      | _ -> ([], [])
    in
    let ks, ps = go leaf.keys l.postings in
    leaf.keys <- ks;
    l.postings <- ps

  (* Walk the leaf chain from [leaf]: [emit k] says whether key k is
     returned, [stop k] whether it ends the walk after this leaf. *)
  let walk pool t leaf ~emit ~stop =
    let out = ref [] in
    let rec go node =
      touch pool t node;
      let l = postings node in
      let continue = ref true in
      List.iter2
        (fun k p ->
          if emit k then List.iter (fun tid -> out := (k, tid) :: !out) (List.rev p);
          if stop k then continue := false)
        node.keys l.postings;
      if !continue then Option.iter go l.next
    in
    go leaf;
    List.rev !out

  let in_bound bound key ~lower =
    match bound with
    | Btree.Unbounded -> true
    | Btree.Incl b -> if lower then compare_keys key b >= 0 else compare_keys key b <= 0
    | Btree.Excl b -> if lower then compare_keys key b > 0 else compare_keys key b < 0

  let range ?pool t ~lower ~upper =
    let leaf =
      match lower with
      | Btree.Unbounded ->
        let rec leftmost node =
          touch pool t node;
          match node.body with
          | Leaf _ -> node
          | Internal i -> leftmost (List.hd i.children)
        in
        leftmost t.root
      | Btree.Incl k | Btree.Excl k -> descend pool t t.root k
    in
    walk pool t leaf
      ~emit:(fun k -> in_bound upper k ~lower:false && in_bound lower k ~lower:true)
      ~stop:(fun k -> not (in_bound upper k ~lower:false))

  let prefix ?pool t p =
    let plen = Array.length p in
    let matches k =
      Array.length k >= plen
      && Array.for_all2 (fun a b -> Datum.compare a b = 0) (Array.sub k 0 plen) p
    in
    walk pool t (descend pool t t.root p) ~emit:matches
      ~stop:(fun k -> (not (matches k)) && compare_keys k p > 0)

  (* one [remove] per entry whose tid is dead; returns the entries held *)
  let bulk_delete t dead =
    let doomed =
      List.filter (fun (_, tid) -> Array.mem tid dead) (range t ~lower:Btree.Unbounded ~upper:Btree.Unbounded)
    in
    let entries = t.entries - List.length doomed in
    List.iter (fun (k, tid) -> remove t k tid) doomed;
    t.entries <- entries;
    List.length doomed

  let rec depth_of node =
    match node.body with Leaf _ -> 1 | Internal i -> 1 + depth_of (List.hd i.children)

  let clear t =
    t.root <- empty_root ();
    t.next_id <- 1;
    t.entries <- 0;
    t.nodes <- 1
end

type btree_op =
  | B_insert of Btree.key * int * bool  (** with a pool? *)
  | B_bulk_delete of int list  (** tids, any order *)
  | B_delete_present of int  (** the tid of the (n mod entries)-th entry, in key order *)
  | B_find of Btree.key
  | B_prefix of Btree.key
  | B_range of Btree.bound * Btree.bound
  | B_clear

let show_key k =
  "[" ^ String.concat "," (Array.to_list (Array.map Datum.to_display k)) ^ "]"

let show_bound = function
  | Btree.Unbounded -> "unbounded"
  | Btree.Incl k -> "incl " ^ show_key k
  | Btree.Excl k -> "excl " ^ show_key k

let show_btree_op = function
  | B_insert (k, tid, pooled) ->
    Printf.sprintf "insert %s %d%s" (show_key k) tid (if pooled then " pooled" else "")
  | B_bulk_delete tids -> "bulk delete " ^ String.concat "," (List.map string_of_int tids)
  | B_delete_present n -> Printf.sprintf "bulk delete entry %d" n
  | B_find k -> "find " ^ show_key k
  | B_prefix k -> "prefix " ^ show_key k
  | B_range (lo, hi) -> Printf.sprintf "range %s .. %s" (show_bound lo) (show_bound hi)
  | B_clear -> "clear"

(* Keys of [width] columns over a small domain, so that duplicates, splits
   and prefix runs are common; [prefix_of] draws 0..width leading columns
   for prefixes and bounds. *)
let btree_op_gen width =
  let open QCheck2.Gen in
  let col = if width = 1 then int_bound 40 else int_bound 7 in
  let key_of n =
    map (fun cs -> Array.of_list (List.map (fun c -> Datum.Int c) cs)) (list_repeat n col)
  in
  let key = key_of width in
  let short = int_range 0 width >>= key_of in
  let bound =
    frequency
      [
        (1, return Btree.Unbounded);
        (3, map (fun k -> Btree.Incl k) short);
        (3, map (fun k -> Btree.Excl k) short);
      ]
  in
  frequency
    [
      (40, map3 (fun k tid pooled -> B_insert (k, tid, pooled)) key (int_bound 7) bool);
      (8, map (fun tids -> B_bulk_delete tids) (list_size (int_range 0 3) (int_bound 7)));
      (12, map (fun n -> B_delete_present n) nat);
      (10, map (fun k -> B_find k) key);
      (10, map (fun k -> B_prefix k) short);
      (10, map2 (fun lo hi -> B_range (lo, hi)) bound bound);
      (1, return B_clear);
    ]

(* Replay [ops] on the array tree and the reference with pools of
   [capacity] pages; after every op the results, the shape counters and the
   pool stats (which pin the sequence of page touches) must agree. *)
let btree_agrees ~order ~capacity ops =
  let b = Btree.create ~name:"i" ~order () and r = Ref_btree.create ~name:"i" ~order in
  let bp = Buffer_pool.create ~capacity and rp = Buffer_pool.create ~capacity in
  let pool_of pooled p = if pooled then Some p else None in
  (* whether the op's results agree *)
  let step = function
    | B_insert (k, tid, pooled) ->
      Btree.insert ?pool:(pool_of pooled bp) b k tid;
      Ref_btree.insert ?pool:(pool_of pooled rp) r k tid;
      true
    | B_bulk_delete tids ->
      let dead = Array.of_list (List.sort_uniq Int.compare tids) in
      Btree.bulk_delete b dead = Ref_btree.bulk_delete r dead
    | B_delete_present n ->
      (match Ref_btree.range r ~lower:Btree.Unbounded ~upper:Btree.Unbounded with
       | [] -> true
       | all ->
         let dead = [| snd (List.nth all (n mod List.length all)) |] in
         Btree.bulk_delete b dead = Ref_btree.bulk_delete r dead)
    | B_find k -> Btree.find_eq ~pool:bp b k = Ref_btree.find_eq ~pool:rp r k
    | B_prefix k -> Btree.prefix ~pool:bp b k = Ref_btree.prefix ~pool:rp r k
    | B_range (lower, upper) ->
      Btree.range ~pool:bp b ~lower ~upper = Ref_btree.range ~pool:rp r ~lower ~upper
    | B_clear ->
      Btree.clear b;
      Ref_btree.clear r;
      true
  in
  List.for_all
    (fun op ->
      let fail what =
        QCheck2.Test.fail_reportf "after %s: %s differs" (show_btree_op op) what
      in
      if not (step op) then fail "result";
      if Btree.entry_count b <> r.Ref_btree.entries then fail "entry_count";
      if Btree.depth b <> Ref_btree.depth_of r.Ref_btree.root then fail "depth";
      if Btree.page_count b <> r.Ref_btree.nodes then fail "page_count";
      if Buffer_pool.stats bp <> Buffer_pool.stats rp then fail "pool stats";
      true)
    ops

let prop_btree_matches_list_reference =
  QCheck2.Test.make ~name:"array btree = list btree, page touches included" ~count:300
    ~print:(fun (order, _, ops) ->
      String.concat "\n" (Printf.sprintf "order %d:" order :: List.map show_btree_op ops))
    QCheck2.Gen.(
      let* order = oneofl [ 3; 4; 5; 6; 7; 8; 32 ] in
      let* width = int_range 1 2 in
      let+ ops = list_size (int_range 0 400) (btree_op_gen width) in
      (order, width, ops))
    (fun (order, _, ops) ->
      List.for_all (fun capacity -> btree_agrees ~order ~capacity ops) [ 1; 2; 3 ])

(* --- GIN --- *)

(* The string trigrams the codes replaced, kept as their reference:
   lowercase alphanumeric runs, each padded "  w " when [pad]. *)
let ref_trigrams ~pad s =
  String.map
    (function
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | 'A' .. 'Z' as c -> Char.lowercase_ascii c
      | _ -> ' ')
    s
  |> String.split_on_char ' '
  |> List.concat_map (fun w ->
         let w = if pad && w <> "" then "  " ^ w ^ " " else w in
         List.init (max 0 (String.length w - 2)) (fun i -> String.sub w i 3))
  |> List.sort_uniq String.compare

let decode code = String.init 3 (fun i -> Char.chr ((code lsr (8 * (2 - i))) land 0xFF))

let trigrams ~pad s = Array.to_list (Array.map decode (Gin.codes ~pad s))

let test_gin_trigrams () =
  Alcotest.(check (list string)) "padded" [ "  c"; " ca"; "at "; "cat" ] (trigrams ~pad:true "cat");
  Alcotest.(check (list string)) "unpadded" [ "cat" ] (trigrams ~pad:false "Cat")

let prop_gin_codes_match_strings =
  let open QCheck2.Gen in
  let chars = [ 'a'; 'b'; 'z'; 'A'; 'Q'; 'Z'; '0'; '9'; ' '; '%'; '\''; '"'; '\t'; '\x80'; '\xff' ] in
  QCheck2.Test.make ~name:"trigram codes = string trigrams" ~count:2000 ~print:(Printf.sprintf "%S")
    (* texts past 511 bytes take the codes' own array, not the scratch one *)
    (string_size ~gen:(oneofl chars) (frequency [ (9, int_range 0 40); (1, int_range 500 700) ]))
    (fun s ->
      trigrams ~pad:true s = ref_trigrams ~pad:true s
      && trigrams ~pad:false s = ref_trigrams ~pad:false s)

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
  Alcotest.(check int) "held once" 1 (Gin.bulk_delete g [| 1; 2 |]);
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

(* Model test: the sorted-array postings and their pending list against
   per-trigram integer sets that take every add at once, with the same
   page touches. A pooled add touches the page of each of its trigrams
   that has none yet (numbering it), then the pending page; a lookup
   touches its trigrams' pages, then the pending page while the list is
   not empty; a cleanup touches each merged posting's page once, in
   trigram order. Pages are numbered on first touch. Tids come from a
   small range, so a tid freed by a bulk delete is soon added again,
   often into the middle of a posting. *)
module Ref_gin = struct
  module Int_set = Set.Make (Int)

  type t = {
    postings : (string, Int_set.t) Hashtbl.t;
    pages : (string, int) Hashtbl.t;
    mutable seq : int;
    mutable pending : string list;  (** the trigram of every pending entry *)
    mutable npending : int;
  }

  let create () =
    { postings = Hashtbl.create 16; pages = Hashtbl.create 16; seq = 0; pending = []; npending = 0 }

  let access pool page_no =
    Option.iter
      (fun pool -> ignore (Buffer_pool.access pool { Buffer_pool.relation = "gin:g"; page_no }))
      pool

  let touch pool r tg =
    if pool <> None then begin
      let page =
        match Hashtbl.find_opt r.pages tg with
        | Some p -> p
        | None ->
          let p = r.seq in
          r.seq <- p + 1;
          Hashtbl.replace r.pages tg p;
          p
      in
      access pool page
    end

  let pending_page = -1

  let set r tg = Option.value ~default:Int_set.empty (Hashtbl.find_opt r.postings tg)

  let cleanup ?pool r =
    List.iter (touch pool r) (List.sort_uniq String.compare r.pending);
    r.pending <- [];
    r.npending <- 0

  let add ?pool r ~tid text =
    let tgs = ref_trigrams ~pad:true text in
    List.iter (fun tg -> Hashtbl.replace r.postings tg (Int_set.add tid (set r tg))) tgs;
    List.iter (fun tg -> if not (Hashtbl.mem r.pages tg) then touch pool r tg) tgs;
    if tgs <> [] then begin
      r.pending <- tgs @ r.pending;
      r.npending <- r.npending + List.length tgs;
      access pool pending_page;
      if r.npending >= Gin.pending_limit then cleanup ?pool r
    end;
    List.length tgs

  let bulk_delete ?pool r dead =
    cleanup ?pool r;
    let held =
      List.filter
        (fun tid -> Hashtbl.fold (fun _ s acc -> acc || Int_set.mem tid s) r.postings false)
        dead
    in
    Hashtbl.filter_map_inplace
      (fun _ s -> Some (List.fold_left (fun s tid -> Int_set.remove tid s) s dead))
      r.postings;
    List.length held

  let candidates ?pool r pattern =
    match ref_trigrams ~pad:false pattern with
    | [] -> None
    | tg :: rest ->
      List.iter (touch pool r) (tg :: rest);
      if r.npending > 0 then access pool pending_page;
      Some
        (Int_set.elements
           (List.fold_left (fun acc tg -> Int_set.inter acc (set r tg)) (set r tg) rest))

  let clear r =
    Hashtbl.reset r.postings;
    Hashtbl.reset r.pages;
    r.seq <- 0;
    r.pending <- [];
    r.npending <- 0
end

type gin_op =
  | G_add of int * string * bool  (** tid, text, through the pool *)
  | G_delete of int list * bool
  | G_cleanup of bool
  | G_candidates of string * bool
  | G_clear

let show_gin_op op =
  let pooled p = if p then " pooled" else "" in
  match op with
  | G_add (tid, text, p) -> Printf.sprintf "add %d %S%s" tid text (pooled p)
  | G_delete (tids, p) -> "delete " ^ String.concat "," (List.map string_of_int tids) ^ pooled p
  | G_cleanup p -> "cleanup" ^ pooled p
  | G_candidates (text, p) -> Printf.sprintf "candidates %S%s" text (pooled p)
  | G_clear -> "clear"

(* [adds] weighs adds against the other ops: high, the pending list
   grows long between the ops that empty it *)
let gin_op_gen ~adds ~text ~pattern ~tid =
  let open QCheck2.Gen in
  frequency
    [
      (adds, map3 (fun tid text pooled -> G_add (tid, text, pooled)) tid text bool);
      (2, map2 (fun tids p -> G_delete (List.sort_uniq Int.compare tids, p)) (list_size (int_range 0 12) tid) bool);
      (1, map (fun p -> G_cleanup p) bool);
      (4, map2 (fun p pooled -> G_candidates (p, pooled)) pattern bool);
      (1, return G_clear);
    ]

let gin_apply g r gp rp op =
  let pool_of pooled p = if pooled then Some p else None in
  match op with
  | G_add (tid, text, pooled) ->
    Gin.add ?pool:(pool_of pooled gp) g ~tid text = Ref_gin.add ?pool:(pool_of pooled rp) r ~tid text
  | G_delete (tids, pooled) ->
    Gin.bulk_delete ?pool:(pool_of pooled gp) g (Array.of_list tids)
    = Ref_gin.bulk_delete ?pool:(pool_of pooled rp) r tids
  | G_cleanup pooled ->
    Gin.cleanup ?pool:(pool_of pooled gp) g;
    Ref_gin.cleanup ?pool:(pool_of pooled rp) r;
    true
  | G_candidates (p, pooled) ->
    Gin.candidates ?pool:(pool_of pooled gp) g p = Ref_gin.candidates ?pool:(pool_of pooled rp) r p
  | G_clear ->
    Gin.clear g;
    Ref_gin.clear r;
    true

let gin_agrees ~capacity ops =
  let g = Gin.create ~name:"g" () and r = Ref_gin.create () in
  let gp = Buffer_pool.create ~capacity and rp = Buffer_pool.create ~capacity in
  List.for_all
    (fun op ->
      if not (gin_apply g r gp rp op) then
        QCheck2.Test.fail_reportf "after %s: result differs" (show_gin_op op);
      if Buffer_pool.stats gp <> Buffer_pool.stats rp then
        QCheck2.Test.fail_reportf "after %s: pool stats differ" (show_gin_op op);
      true)
    ops

let prop_gin_matches_set_reference =
  let open QCheck2.Gen in
  let word = oneofl [ "postgres"; "post"; "gres"; "Fix"; "bug"; "planner"; "plan"; "ann"; "ab"; "x-y" ] in
  let text = map (String.concat " ") (list_size (int_range 0 4) word) in
  QCheck2.Test.make ~name:"array gin = set gin, page touches included" ~count:300
    ~print:(fun ops -> String.concat "\n" (List.map show_gin_op ops))
    (list_size (int_range 0 300) (gin_op_gen ~adds:8 ~text ~pattern:text ~tid:(int_range 0 47)))
    (fun ops -> List.for_all (fun capacity -> gin_agrees ~capacity ops) [ 1; 2; 3 ])

(* Long texts of random words fill the pending list past its limit
   between cleanups, so [add]'s own cleanup and the merge of long runs
   are exercised; results must be those of the reference, which takes
   every add at once, whenever the merges happen, and so must the page
   touches. *)
let prop_gin_pending_matches_immediate =
  let open QCheck2.Gen in
  let word = string_size ~gen:(oneofl [ 'a'; 'b'; 'o'; 'p'; 's'; 'T'; '1' ]) (int_range 1 7) in
  let text = map (String.concat " ") (list_size (int_range 0 60) word) in
  let pattern = map (String.concat " ") (list_size (int_range 1 2) word) in
  QCheck2.Test.make ~name:"gin pending list = immediate inserts" ~count:60
    ~print:(fun ops -> String.concat "\n" (List.map show_gin_op ops))
    (list_size (int_range 0 400) (gin_op_gen ~adds:120 ~text ~pattern ~tid:(int_range 0 199)))
    (gin_agrees ~capacity:8)

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
          QCheck_alcotest.to_alcotest prop_btree_matches_list_reference;
        ] );
      ( "gin",
        [
          Alcotest.test_case "trigrams" `Quick test_gin_trigrams;
          Alcotest.test_case "candidates" `Quick test_gin_candidates;
          Alcotest.test_case "remove" `Quick test_gin_remove;
          Alcotest.test_case "case insensitive" `Quick test_gin_case_insensitive;
          QCheck_alcotest.to_alcotest prop_gin_codes_match_strings;
          QCheck_alcotest.to_alcotest prop_gin_matches_set_reference;
          QCheck_alcotest.to_alcotest prop_gin_pending_matches_immediate;
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
