type kind = Distributed | Reference

type dist_table = {
  dt_name : string;
  dist_column : string option;
  dist_column_ty : Datum.ty option;
  colocation_id : int;
  kind : kind;
}

type shard = {
  shard_id : int;
  shard_of : string;
  min_hash : int32;
  max_hash : int32;
  index_in_colocation : int;
}

type placement_state = Active | Inactive

type placement = { pl_node : string; mutable pl_state : placement_state }

(* The shard-interval cache of one table: its shards in hash-range order
   as a list and as an array for binary search, and the type its
   distribution values are cast to before hashing. *)
type interval_cache = {
  c_shards : shard list;
  c_ranges : shard array;
  c_key_ty : Datum.ty option;
}

type t = {
  shard_count : int;
  mutable tables : dist_table list;
  mutable shards : shard list;  (* assigned only through [set_shards] *)
  by_table : (string, interval_cache) Hashtbl.t;
  by_id : (int, shard) Hashtbl.t;
  (* shard_id -> placements (node + health state, Citus shardstate 1/3) *)
  placement_tbl : (int, placement list) Hashtbl.t;
  mutable next_shard_id : int;
  mutable next_colocation_id : int;
  mutable version : int;
      (* monotonic metadata version: bumped by every mutation that can
         invalidate a cached distributed plan (DDL, placement changes,
         shard splits). The plan cache revalidates against it. *)
}

exception Not_distributed of string

(* Catalog lookups that fail indicate corrupted or inconsistent metadata
   (an unknown shard id, a shard with every replica lost), not a node
   failure: a typed exception keeps the two failure classes separate so
   executors never retry a catalog bug against another replica. *)
exception Catalog_error of string

let catalog_error fmt = Printf.ksprintf (fun m -> raise (Catalog_error m)) fmt

let create ?(shard_count = 32) () =
  {
    shard_count;
    tables = [];
    shards = [];
    by_table = Hashtbl.create 16;
    by_id = Hashtbl.create 64;
    placement_tbl = Hashtbl.create 64;
    next_shard_id = 102008;
    next_colocation_id = 1;
    version = 0;
  }

let version t = t.version

let bump_version t = t.version <- t.version + 1

let find t name =
  List.find_opt (fun dt -> String.equal dt.dt_name name) t.tables

let is_citus_table t name = find t name <> None

let all_tables t = t.tables

let by_range a b = Int32.compare a.min_hash b.min_hash

(* The only writer of [t.shards]: rebuilds the shard-interval cache, so
   lookups never see a stale shard list. *)
let set_shards t shards =
  t.shards <- shards;
  Hashtbl.reset t.by_table;
  Hashtbl.reset t.by_id;
  List.iter (fun s -> Hashtbl.replace t.by_id s.shard_id s) shards;
  List.iter
    (fun name ->
      let sorted =
        List.filter (fun s -> String.equal s.shard_of name) shards
        |> List.sort by_range
      in
      let c_key_ty = Option.bind (find t name) (fun dt -> dt.dist_column_ty) in
      Hashtbl.replace t.by_table name
        { c_shards = sorted; c_ranges = Array.of_list sorted; c_key_ty })
    (List.sort_uniq String.compare (List.map (fun s -> s.shard_of) shards))

let cached_shards t name =
  match Hashtbl.find_opt t.by_table name with
  | Some c -> c
  | None ->
    if find t name = None then raise (Not_distributed name)
    else { c_shards = []; c_ranges = [||]; c_key_ty = None }

let fresh_shard_id t =
  let id = t.next_shard_id in
  t.next_shard_id <- id + 1;
  id

(* Divide the int32 hash space into [n] contiguous ranges, PostgreSQL/Citus
   style: range i covers [min + i*step, min + (i+1)*step - 1], with the last
   range absorbing the remainder. *)
let hash_ranges n =
  let span = Int64.sub (Int64.of_int32 Int32.max_int) (Int64.of_int32 Int32.min_int) in
  let step = Int64.div (Int64.add span 1L) (Int64.of_int n) in
  List.init n (fun i ->
      let lo =
        Int64.add (Int64.of_int32 Int32.min_int) (Int64.mul step (Int64.of_int i))
      in
      let hi =
        if i = n - 1 then Int64.of_int32 Int32.max_int
        else Int64.sub (Int64.add lo step) 1L
      in
      (Int64.to_int32 lo, Int64.to_int32 hi))

let active_pl = List.filter (fun p -> p.pl_state = Active)

let fresh_copies pls =
  List.map (fun p -> { pl_node = p.pl_node; pl_state = p.pl_state }) pls

let all_placements t shard_id =
  match Hashtbl.find_opt t.placement_tbl shard_id with
  | Some pls -> pls
  | None -> catalog_error "no placements for shard %d" shard_id

let placements t shard_id =
  match active_pl (all_placements t shard_id) with
  | [] -> catalog_error "shard %d has no active placement" shard_id
  | pls -> List.map (fun p -> p.pl_node) pls

let placement t shard_id =
  match placements t shard_id with
  | node :: _ -> node
  | [] -> catalog_error "shard %d has no active placement" shard_id

let register_distributed ?(replication_factor = 1) t ~table ~column ~ty
    ~colocate_with ~nodes =
  if find t table <> None then
    invalid_arg (Printf.sprintf "table %s is already distributed" table);
  if nodes = [] then invalid_arg "no nodes to place shards on";
  if replication_factor < 1 then invalid_arg "replication_factor must be >= 1";
  match colocate_with with
  | Some other ->
    let other_dt =
      match find t other with
      | Some dt when dt.kind = Distributed -> dt
      | Some _ -> invalid_arg (other ^ " is not a distributed table")
      | None -> raise (Not_distributed other)
    in
    let other_shards = (cached_shards t other).c_shards in
    let dt =
      {
        dt_name = table;
        dist_column = Some column;
        dist_column_ty = Some ty;
        colocation_id = other_dt.colocation_id;
        kind = Distributed;
      }
    in
    t.tables <- t.tables @ [ dt ];
    let new_shards =
      List.map
        (fun (os : shard) ->
          let s =
            {
              shard_id = fresh_shard_id t;
              shard_of = table;
              min_hash = os.min_hash;
              max_hash = os.max_hash;
              index_in_colocation = os.index_in_colocation;
            }
          in
          (* colocated shards get their own placement records (health is
             tracked per placement), on the same nodes in the same state *)
          Hashtbl.replace t.placement_tbl s.shard_id
            (fresh_copies (all_placements t os.shard_id));
          s)
        other_shards
    in
    set_shards t (t.shards @ new_shards);
    bump_version t;
    new_shards
  | None ->
    let colocation_id = t.next_colocation_id in
    t.next_colocation_id <- colocation_id + 1;
    let dt =
      {
        dt_name = table;
        dist_column = Some column;
        dist_column_ty = Some ty;
        colocation_id;
        kind = Distributed;
      }
    in
    t.tables <- t.tables @ [ dt ];
    let node_array = Array.of_list nodes in
    let n_nodes = Array.length node_array in
    let rf = min replication_factor n_nodes in
    let new_shards =
      List.mapi
        (fun i (lo, hi) ->
          let s =
            {
              shard_id = fresh_shard_id t;
              shard_of = table;
              min_hash = lo;
              max_hash = hi;
              index_in_colocation = i;
            }
          in
          (* round-robin placement, §3.3.1; with statement-based
             replication, each shard also lands on the next rf-1 nodes *)
          Hashtbl.replace t.placement_tbl s.shard_id
            (List.init rf (fun k ->
                 { pl_node = node_array.((i + k) mod n_nodes);
                   pl_state = Active }));
          s)
        (hash_ranges t.shard_count)
    in
    set_shards t (t.shards @ new_shards);
    bump_version t;
    new_shards

let register_reference t ~table ~nodes =
  if find t table <> None then
    invalid_arg (Printf.sprintf "table %s is already distributed" table);
  let colocation_id = 0 in
  let dt =
    {
      dt_name = table;
      dist_column = None;
      dist_column_ty = None;
      colocation_id;
      kind = Reference;
    }
  in
  t.tables <- t.tables @ [ dt ];
  let s =
    {
      shard_id = fresh_shard_id t;
      shard_of = table;
      min_hash = Int32.min_int;
      max_hash = Int32.max_int;
      index_in_colocation = 0;
    }
  in
  Hashtbl.replace t.placement_tbl s.shard_id
    (List.map (fun n -> { pl_node = n; pl_state = Active }) nodes);
  set_shards t (t.shards @ [ s ]);
  bump_version t;
  s

let drop_table t name =
  t.tables <- List.filter (fun dt -> not (String.equal dt.dt_name name)) t.tables;
  let dropped, kept =
    List.partition (fun s -> String.equal s.shard_of name) t.shards
  in
  List.iter (fun s -> Hashtbl.remove t.placement_tbl s.shard_id) dropped;
  set_shards t kept;
  bump_version t

let shards_of t name = (cached_shards t name).c_shards

(* A distribution value is cast to the column's type before hashing, so
   a quoted '5' hashes like the bigint 5 the shard stores. A value the
   type cannot hold matches no stored row, so it hashes as given. *)
let hash_key c value =
  Datum.hash32
    (match c.c_key_ty with
     | Some ty -> (try Datum.cast value ty with Datum.Cast_error _ -> value)
     | None -> value)

let hash_of_value t ~table value = hash_key (cached_shards t table) value

let shard_for_value t ~table value =
  let c = cached_shards t table in
  let h = hash_key c value in
  let ranges = c.c_ranges in
  (* binary search for the last shard whose range starts at or below [h] *)
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if Int32.compare ranges.(mid).min_hash h <= 0 then search mid hi
      else search lo mid
  in
  let i = search 0 (Array.length ranges) in
  if i < Array.length ranges && Int32.compare h ranges.(i).min_hash >= 0
     && Int32.compare h ranges.(i).max_hash <= 0 then ranges.(i)
  else invalid_arg "hash value outside all shard ranges"

let shard_name s = Printf.sprintf "%s_%d" s.shard_of s.shard_id

let placement_state_of t ~shard_id ~node =
  List.find_opt (fun p -> String.equal p.pl_node node) (all_placements t shard_id)
  |> Option.map (fun p -> p.pl_state)

let mark_placement t ~shard_id ~node state =
  match
    List.find_opt (fun p -> String.equal p.pl_node node)
      (all_placements t shard_id)
  with
  | Some p ->
    p.pl_state <- state;
    bump_version t
  | None ->
    invalid_arg
      (Printf.sprintf "shard %d has no placement on %s" shard_id node)

let shard_by_id t shard_id = Hashtbl.find_opt t.by_id shard_id

(* Shards that must stay aligned with [shard]: the same group index in
   every other table of its colocation group (reference shards stand
   alone). *)
let colocated_shards t (shard : shard) =
  match find t shard.shard_of with
  | Some { kind = Reference; _ } | None -> [ shard ]
  | Some owner ->
    List.filter_map
      (fun dt ->
        if dt.kind = Distributed && dt.colocation_id = owner.colocation_id
        then
          List.find_opt
            (fun s -> s.index_in_colocation = shard.index_in_colocation)
            (shards_of t dt.dt_name)
        else None)
      t.tables

let inactive_placements t =
  List.concat_map
    (fun s ->
      match Hashtbl.find_opt t.placement_tbl s.shard_id with
      | None -> []
      | Some pls ->
        List.filter_map
          (fun p -> if p.pl_state = Inactive then Some (s, p.pl_node) else None)
          pls)
    t.shards

let update_placement t ~shard_id ~from_node ~to_node =
  Hashtbl.replace t.placement_tbl shard_id
    (List.map
       (fun p ->
         if String.equal p.pl_node from_node then
           { pl_node = to_node; pl_state = Active }
         else p)
       (all_placements t shard_id));
  bump_version t

let add_placement t ~shard_id ~node =
  let pls = all_placements t shard_id in
  if not (List.exists (fun p -> String.equal p.pl_node node) pls) then begin
    Hashtbl.replace t.placement_tbl shard_id
      (pls @ [ { pl_node = node; pl_state = Active } ]);
    bump_version t
  end

let colocated t names =
  let ids =
    List.filter_map
      (fun n ->
        match find t n with
        | Some { kind = Reference; _ } -> None (* compatible with anything *)
        | Some dt -> Some dt.colocation_id
        | None -> None)
      names
  in
  match List.sort_uniq Int.compare ids with [] | [ _ ] -> true | _ -> false

(* Pick the node serving a shard: the first active placement whose node
   passes [node_ok] (a health predicate), else the first active one. *)
let select_placement ?node_ok t shard_id =
  (* [placements] raises Catalog_error rather than return [], so the
     match below is total without a partial List.hd *)
  match placements t shard_id with
  | [] -> catalog_error "shard %d has no active placement" shard_id
  | first :: _ as nodes ->
    (match node_ok with
     | None -> first
     | Some ok ->
       (match List.find_opt ok nodes with Some n -> n | None -> first))

let shard_groups ?node_ok t ~tables =
  let dist_tables =
    List.filter
      (fun n ->
        match find t n with Some { kind = Distributed; _ } -> true | _ -> false)
      tables
  in
  match dist_tables with
  | [] -> []
  | anchor :: _ ->
    let anchor_shards = shards_of t anchor in
    List.map
      (fun (a : shard) ->
        let members =
          List.map
            (fun tbl ->
              let s =
                List.find
                  (fun (s : shard) ->
                    s.index_in_colocation = a.index_in_colocation)
                  (shards_of t tbl)
              in
              (tbl, s))
            dist_tables
        in
        (a.index_in_colocation, select_placement ?node_ok t a.shard_id, members))
      anchor_shards

let nodes_in_use t =
  Hashtbl.fold
    (fun _ pls acc -> List.map (fun p -> p.pl_node) pls @ acc)
    t.placement_tbl []
  |> List.sort_uniq String.compare

let shards_on_node t node =
  List.filter
    (fun s ->
      (match find t s.shard_of with
       | Some { kind = Distributed; _ } -> true
       | _ -> false)
      && List.exists
           (fun p -> String.equal p.pl_node node)
           (all_placements t s.shard_id))
    t.shards

(* --- shard splitting (tenant isolation) --- *)

let replace_shard t ~shard_id ~ranges =
  let old =
    match shard_by_id t shard_id with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "no shard %d" shard_id)
  in
  let pls = all_placements t shard_id in
  let news =
    List.map
      (fun (lo, hi) ->
        let s =
          {
            shard_id = fresh_shard_id t;
            shard_of = old.shard_of;
            min_hash = lo;
            max_hash = hi;
            index_in_colocation = old.index_in_colocation (* renumbered below *);
          }
        in
        Hashtbl.replace t.placement_tbl s.shard_id (fresh_copies pls);
        s)
      ranges
  in
  Hashtbl.remove t.placement_tbl shard_id;
  set_shards t (List.filter (fun s -> s.shard_id <> shard_id) t.shards @ news);
  bump_version t;
  news

(* Reassign index_in_colocation consistently across every table of a
   colocation group after a split: shards are numbered by range order,
   which is identical for all tables in the group. *)
let renumber_colocation t ~colocation_id =
  let tables =
    List.filter
      (fun dt -> dt.kind = Distributed && dt.colocation_id = colocation_id)
      t.tables
  in
  List.iter
    (fun dt ->
      let renumbered =
        List.mapi
          (fun i s -> { s with index_in_colocation = i })
          (shards_of t dt.dt_name)
      in
      set_shards t
        (List.filter (fun s -> not (String.equal s.shard_of dt.dt_name)) t.shards
        @ renumbered))
    tables;
  bump_version t
