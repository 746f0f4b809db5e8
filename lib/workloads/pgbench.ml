type config = { rows : int }

let setup db cfg =
  ignore (Db.exec db "CREATE TABLE a1 (key bigint PRIMARY KEY, v bigint)");
  ignore (Db.exec db "CREATE TABLE a2 (key bigint PRIMARY KEY, v bigint)");
  Db.distribute db ~table:"a1" ~column:"key" ();
  Db.distribute db ~table:"a2" ~column:"key" ~colocate_with:"a1" ();
  let lines = List.init cfg.rows (fun i -> Printf.sprintf "%d\t0" (i + 1)) in
  ignore (Engine.Instance.copy_in db.Db.session ~table:"a1" ~columns:None lines);
  ignore (Engine.Instance.copy_in db.Db.session ~table:"a2" ~columns:None lines)

type mode = Same_key | Different_keys

let node_of db table key =
  match db.Db.citus with
  | None -> "local"
  | Some api ->
    let meta = api.Citus.Api.metadata in
    Citus.Metadata.placement meta
      (Citus.Metadata.shard_for_value meta ~table (Datum.Int key))
        .Citus.Metadata.shard_id

let run_one db session cfg mode rng =
  let d = 1 + Random.State.int rng 10 in
  let k1 = 1 + Random.State.int rng cfg.rows in
  let k2 =
    match mode with
    | Same_key -> k1
    | Different_keys -> 1 + Random.State.int rng cfg.rows
  in
  ignore (Db.exec_on session "BEGIN");
  ignore
    (Db.exec_on session
       (Printf.sprintf "UPDATE a1 SET v = v + %d WHERE key = %d" d k1));
  ignore
    (Db.exec_on session
       (Printf.sprintf "UPDATE a2 SET v = v - %d WHERE key = %d" d k2));
  ignore (Db.exec_on session "COMMIT");
  not (String.equal (node_of db "a1" k1) (node_of db "a2" k2))

let balance_invariant_holds db =
  let total table =
    match
      (Db.exec db (Printf.sprintf "SELECT sum(v) FROM %s" table))
        .Engine.Instance.rows
    with
    | [ [| Datum.Int n |] ] -> n
    | [ [| Datum.Null |] ] -> 0
    | _ -> max_int
  in
  total "a1" + total "a2" = 0
