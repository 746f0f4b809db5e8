(* Differential testing: the same statements against single-node
   PostgreSQL and two Citus clusters, plan cache on and off, must
   produce the same answers. Random
   queries (filters, aggregates, grouping, ordering) and random DML
   sequences are generated by qcheck; mismatches shrink to a minimal
   counterexample query. *)

let n_rows = 80

let setup () =
  let pg = Workloads.Db.postgres () in
  let cz = Workloads.Db.citus ~workers:3 ~shard_count:8 () in
  (* the same cluster with the plan cache off: every statement is
     planned, so cached and planned routing must agree row for row *)
  let cz_uncached = Workloads.Db.citus ~workers:3 ~shard_count:8 () in
  ignore
    (Workloads.Db.exec cz_uncached
       "SELECT citus_set_config('plan_cache_size', '0')");
  List.iter
    (fun (db : Workloads.Db.t) ->
      ignore
        (Workloads.Db.exec db
           "CREATE TABLE t (a bigint, b bigint, c text, d double precision)");
      Workloads.Db.distribute db ~table:"t" ~column:"a" ();
      ignore (Workloads.Db.exec db "CREATE TABLE r (id bigint, label text)");
      Workloads.Db.reference db ~table:"r";
      ignore
        (Workloads.Db.exec db
           "INSERT INTO r VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, 'three')");
      let rng = Random.State.make [| 31 |] in
      ignore (Workloads.Db.exec db "BEGIN");
      for i = 1 to n_rows do
        ignore
          (Workloads.Db.exec db
             (Printf.sprintf
                "INSERT INTO t (a, b, c, d) VALUES (%d, %d, '%c%d', %f)" i
                (Random.State.int rng 4)
                (Char.chr (Char.code 'a' + Random.State.int rng 3))
                (Random.State.int rng 10)
                (Random.State.float rng 100.0)))
      done;
      ignore (Workloads.Db.exec db "COMMIT"))
    [ pg; cz; cz_uncached ];
  (pg, cz, cz_uncached)

let pg, cz, cz_uncached = setup ()

(* --- query generator --- *)

let gen_filter =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map (fun v -> Printf.sprintf "a = %d" v) (int_range 1 n_rows);
        map (fun v -> Printf.sprintf "a <= %d" v) (int_range 0 (n_rows + 5));
        map (fun v -> Printf.sprintf "b = %d" v) (int_range 0 4);
        map (fun v -> Printf.sprintf "b <> %d" v) (int_range 0 4);
        map
          (fun (lo, hi) -> Printf.sprintf "a BETWEEN %d AND %d" lo (lo + hi))
          (pair (int_range 0 n_rows) (int_range 0 20));
        map (fun ch -> Printf.sprintf "c LIKE '%c%%'" ch) (char_range 'a' 'c');
        return "d > 50.0";
        return "c IS NOT NULL";
      ]
  in
  let open QCheck2.Gen in
  oneof
    [
      leaf;
      map2 (fun x y -> Printf.sprintf "(%s AND %s)" x y) leaf leaf;
      map2 (fun x y -> Printf.sprintf "(%s OR %s)" x y) leaf leaf;
    ]

let gen_agg =
  QCheck2.Gen.oneofl
    [ "count(*)"; "sum(b)"; "min(a)"; "max(a)"; "sum(a + b)"; "count(b)" ]

let gen_query =
  let open QCheck2.Gen in
  oneof
    [
      (* plain filtered select with deterministic order *)
      map
        (fun f ->
          Printf.sprintf "SELECT a, b, c FROM t WHERE %s ORDER BY a, b, c" f)
        gen_filter;
      (* global aggregate *)
      map2
        (fun agg f -> Printf.sprintf "SELECT %s FROM t WHERE %s" agg f)
        gen_agg gen_filter;
      (* group by non-distribution column *)
      map2
        (fun agg f ->
          Printf.sprintf "SELECT b, %s FROM t WHERE %s GROUP BY b ORDER BY b" agg f)
        gen_agg gen_filter;
      (* group by the distribution column *)
      map
        (fun f ->
          Printf.sprintf
            "SELECT a, count(*) FROM t WHERE %s GROUP BY a ORDER BY a" f)
        gen_filter;
      (* join with the reference table *)
      map
        (fun f ->
          Printf.sprintf
            "SELECT r.label, count(*) FROM t JOIN r ON t.b = r.id WHERE %s \
             GROUP BY r.label ORDER BY r.label"
            f)
        gen_filter;
      (* order + limit merge *)
      map2
        (fun f k ->
          Printf.sprintf
            "SELECT a, b FROM t WHERE %s ORDER BY b DESC, a ASC LIMIT %d" f k)
        gen_filter (int_range 1 10);
      (* having *)
      map
        (fun k ->
          Printf.sprintf
            "SELECT b, count(*) FROM t GROUP BY b HAVING count(*) > %d ORDER BY b"
            k)
        (int_range 0 20);
      (* distinct projection *)
      map
        (fun f -> Printf.sprintf "SELECT DISTINCT b FROM t WHERE %s ORDER BY b" f)
        gen_filter;
      (* IN over the reference table *)
      map
        (fun f ->
          Printf.sprintf
            "SELECT count(*) FROM t WHERE %s AND b IN (SELECT id FROM r WHERE id > 0)"
            f)
        gen_filter;
      (* CTE form *)
      map
        (fun f ->
          Printf.sprintf
            "WITH filtered AS (SELECT a, b FROM t WHERE %s)              SELECT b, count(*) FROM filtered GROUP BY b ORDER BY b" f)
        gen_filter;
      (* arithmetic in aggregates and case *)
      map
        (fun f ->
          Printf.sprintf
            "SELECT sum(CASE WHEN b > 1 THEN a ELSE 0 END), avg(b) FROM t WHERE %s"
            f)
        gen_filter;
      (* group by dist col with pushed order/limit *)
      map2
        (fun f k ->
          Printf.sprintf
            "SELECT a, sum(b) FROM t WHERE %s GROUP BY a ORDER BY a DESC LIMIT %d"
            f k)
        gen_filter (int_range 1 8);
    ]

let datum_approx a b =
  match (a, b) with
  | Datum.Float x, Datum.Float y ->
    Float.abs (x -. y)
    <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Datum.equal a b

let rows_equal r1 r2 =
  List.length r1 = List.length r2
  && List.for_all2
       (fun (a : Datum.t array) (b : Datum.t array) ->
         Array.length a = Array.length b && Array.for_all2 datum_approx a b)
       r1 r2

let run db sql = (Workloads.Db.exec db sql).Engine.Instance.rows

let prop_queries_agree =
  QCheck2.Test.make ~name:"random queries agree between postgres and citus"
    ~count:150 ~print:(fun q -> q) gen_query (fun sql ->
      match (run pg sql, run cz sql, run cz_uncached sql) with
      | r1, r2, r3 -> rows_equal r1 r2 && rows_equal r1 r3
      | exception _ ->
        (* if one engine rejects it, both Citus clusters must *)
        let rejects db = match run db sql with _ -> false | exception _ -> true in
        rejects cz && rejects cz_uncached)

(* --- random DML sequences --- *)

type dml = Upd of int * int | Del of int | Ins of int * int

let gen_dml =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (oneof
       [
         map2 (fun k v -> Upd (k, v)) (int_range 1 n_rows) (int_range 0 9);
         map (fun k -> Del k) (int_range 1 n_rows);
         map2 (fun k v -> Ins (k, v)) (int_range 200 400) (int_range 0 9);
       ])

let dml_sql = function
  | Upd (k, v) -> Printf.sprintf "UPDATE t SET b = %d WHERE a = %d" v k
  | Del k -> Printf.sprintf "DELETE FROM t WHERE a = %d" k
  | Ins (k, v) ->
    Printf.sprintf "INSERT INTO t (a, b, c, d) VALUES (%d, %d, 'x', 0.0)" k v

let table_contents db =
  run db "SELECT a, b, c FROM t ORDER BY a, b, c"

let prop_dml_agree =
  QCheck2.Test.make ~name:"random DML sequences leave identical tables"
    ~count:60
    ~print:(fun ops -> String.concat "; " (List.map dml_sql ops))
    gen_dml
    (fun ops ->
      List.iter
        (fun op ->
          List.iter
            (fun db -> ignore (Workloads.Db.exec db (dml_sql op)))
            [ pg; cz; cz_uncached ])
        ops;
      let expected = table_contents pg in
      rows_equal expected (table_contents cz)
      && rows_equal expected (table_contents cz_uncached))

(* --- shard rewriting round trip --- *)

(* A one-column table definition: [<column> bigint] *)
let key_def column =
  {
    Citus.Metadata.columns =
      [
        {
          Sqlfront.Ast.col_name = column;
          col_ty = Datum.TInt;
          col_default = None;
          col_not_null = false;
        };
      ];
    primary_key = [];
    columnar = false;
    indexes = [];
  }

let prop_shard_rewrite_roundtrip =
  (* the rewritten (shard-named) statement must still deparse/parse
     cleanly — this is exactly what ships over the wire *)
  let meta = Citus.Metadata.create ~shard_count:8 () in
  let _ =
    Citus.Metadata.register_distributed meta ~table:"t" ~column:"a"
      ~def:(key_def "a") ~colocate_with:None ~nodes:[ "n1"; "n2" ]
  in
  QCheck2.Test.make ~name:"shard-rewritten statements survive the wire"
    ~count:100 ~print:(fun q -> q) gen_query (fun sql ->
      let stmt = Sqlfront.Parser.parse_statement sql in
      List.for_all
        (fun gi ->
          let rewritten = Citus.Planner.rewrite_to_group meta ~group_index:gi stmt in
          let text = Sqlfront.Deparse.statement rewritten in
          match Sqlfront.Parser.parse_statement text with
          | ast -> ast = rewritten
          | exception Sqlfront.Parser.Parse_error _ -> false)
        [ 0; 3; 7 ])

(* --- metadata invariants --- *)

let prop_hash_ranges_tile =
  QCheck2.Test.make ~name:"shard ranges tile the int32 space" ~count:30
    QCheck2.Gen.(int_range 1 64)
    (fun shard_count ->
      let meta = Citus.Metadata.create ~shard_count () in
      let shards =
        Citus.Metadata.register_distributed meta ~table:"x" ~column:"k"
          ~def:(key_def "k") ~colocate_with:None ~nodes:[ "n1"; "n2" ]
      in
      let sorted =
        List.sort
          (fun (a : Citus.Metadata.shard) b ->
            Int32.compare a.min_hash b.min_hash)
          shards
      in
      let rec check prev = function
        | [] -> prev = Int64.of_int32 Int32.max_int
        | (s : Citus.Metadata.shard) :: rest ->
          Int64.of_int32 s.min_hash = Int64.add prev 1L
          && Int64.of_int32 s.max_hash >= Int64.of_int32 s.min_hash
          && check (Int64.of_int32 s.max_hash) rest
      in
      check (Int64.sub (Int64.of_int32 Int32.min_int) 1L) sorted)

let prop_every_value_routes =
  QCheck2.Test.make ~name:"every value maps to exactly one shard" ~count:300
    QCheck2.Gen.(pair (int_range 1 32) int)
    (fun (shard_count, v) ->
      let meta = Citus.Metadata.create ~shard_count () in
      ignore
        (Citus.Metadata.register_distributed meta ~table:"x" ~column:"k"
           ~def:(key_def "k") ~colocate_with:None ~nodes:[ "n1" ]);
      let h = Datum.hash32 (Datum.Int v) in
      let owners =
        List.filter
          (fun (s : Citus.Metadata.shard) ->
            Int32.compare h s.min_hash >= 0 && Int32.compare h s.max_hash <= 0)
          (Citus.Metadata.shards_of meta "x")
      in
      List.length owners = 1)

(* The shard-interval cache behind [shards_of] and [shard_for_value]
   must follow every reassignment of the shard list: a split, DROP
   TABLE and distributing the table again. The test keeps its own model
   of each table's shards, from what the mutators return, and checks the
   catalog against a linear scan of it. *)
let prop_shard_lookup_tracks_catalog =
  let module M = Citus.Metadata in
  let in_range h (s : M.shard) =
    Int32.compare h s.min_hash >= 0 && Int32.compare h s.max_hash <= 0
  in
  let ids shards = List.sort compare (List.map (fun (s : M.shard) -> s.shard_id) shards) in
  QCheck2.Test.make ~name:"shard lookup follows catalog changes" ~count:60
    QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 1 40) int))
    (fun (shard_count, values) ->
      let meta = M.create ~shard_count () in
      let model = Hashtbl.create 4 in
      let register table colocate_with =
        Hashtbl.replace model table
          (M.register_distributed meta ~table ~column:"k"
             ~def:(key_def "k") ~colocate_with ~nodes:[ "n1"; "n2" ])
      in
      let agrees table =
        let expected = Hashtbl.find model table in
        ids (M.shards_of meta table) = ids expected
        && List.for_all
             (fun v ->
               let h = Datum.hash32 (Datum.Int v) in
               match List.filter (in_range h) expected with
               | [ owner ] ->
                 (M.shard_for_value meta ~table (Datum.Int v)).shard_id
                 = owner.shard_id
               | _ -> false)
             values
      in
      register "x" None;
      register "y" (Some "x");
      let fresh = agrees "x" && agrees "y" in
      (* split the group holding the first value's hash, tenant style *)
      let h = Datum.hash32 (Datum.Int (List.hd values)) in
      let tenant = M.shard_for_value meta ~table:"x" (Datum.Int (List.hd values)) in
      List.iter
        (fun table ->
          let old =
            List.find
              (fun (s : M.shard) ->
                s.index_in_colocation = tenant.index_in_colocation)
              (Hashtbl.find model table)
          in
          let ranges =
            (if Int32.compare h old.min_hash > 0 then
               [ (old.min_hash, Int32.pred h) ]
             else [])
            @ [ (h, h) ]
            @
            if Int32.compare h old.max_hash < 0 then
              [ (Int32.succ h, old.max_hash) ]
            else []
          in
          let news = M.replace_shard meta ~shard_id:old.shard_id ~ranges in
          Hashtbl.replace model table
            (List.filter
               (fun (s : M.shard) -> s.shard_id <> old.shard_id)
               (Hashtbl.find model table)
            @ news))
        [ "x"; "y" ];
      M.renumber_colocation meta ~colocation_id:(Option.get (M.find meta "x")).colocation_id;
      let split = agrees "x" && agrees "y" in
      M.drop_table meta "y";
      let dropped =
        match M.shard_for_value meta ~table:"y" (Datum.Int 0) with
        | exception M.Not_distributed _ -> true
        | _ -> false
      in
      register "y" None;
      fresh && split && dropped && agrees "x" && agrees "y")

let () =
  Alcotest.run "consistency"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_queries_agree;
          QCheck_alcotest.to_alcotest prop_dml_agree;
        ] );
      ( "wire_format",
        [ QCheck_alcotest.to_alcotest prop_shard_rewrite_roundtrip ] );
      ( "metadata_properties",
        [
          QCheck_alcotest.to_alcotest prop_hash_ranges_tile;
          QCheck_alcotest.to_alcotest prop_every_value_routes;
          QCheck_alcotest.to_alcotest prop_shard_lookup_tracks_catalog;
        ] );
    ]
