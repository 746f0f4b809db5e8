(* The distributed plan cache: query shape -> memoized plan skeleton.
   See the .mli for the design; this module is the data structure only —
   shape analysis lives in [Planner], skeleton construction and cached
   dispatch in [Api], which also emits the plancache.* metrics. *)

type dispatch = {
  d_stmt : Sqlfront.Ast.statement;
  d_wire : Cluster.Connection.stmt;
}

type group = { g_index : int; mutable g_dispatch : dispatch option }

type entry = {
  e_id : int;
  e_key : string;
  e_stmt : Sqlfront.Ast.statement;
  e_shape : Planner.shape;
  e_version : int;
  e_params : int list;
  e_groups : group list;
  mutable e_tick : int;
}

type stat = {
  st_fingerprint : string;
  st_seconds : Obs.Metrics.key;
  mutable st_tier : string;
  mutable st_calls : int;
  mutable st_hits : int;
  mutable st_builds : int;
  mutable st_bypass : int;
}

(* Shapes hashed and compared structurally. [(=)] is exact on a shape
   with no float constant: 0.0 and -0.0 are the one pair of different
   leaves it calls equal. *)
module Shapes = Hashtbl.Make (struct
  type t = Sqlfront.Ast.statement

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

type slot = { stat : stat; mutable cached : entry option }

type t = {
  slots : (string, slot) Hashtbl.t;
  mutable live : int;  (** slots holding an entry *)
  keys : string Shapes.t;  (** ad-hoc shape -> its key *)
  mutable tick : int;  (** LRU clock: bumped on every hit and store *)
  mutable next_id : int;
  retired : int ref;  (** shared by every worker-side statement made here *)
}

let create () =
  {
    slots = Hashtbl.create 32;
    live = 0;
    keys = Shapes.create 32;
    tick = 0;
    next_id = 1;
    retired = ref 0;
  }

(* A shape holds a float constant only inside a subquery, which lifting
   does not enter; its key text then shows a float literal. *)
let float_free key =
  not
    (List.exists
       (function Sqlfront.Lexer.Float_lit _ -> true | _ -> false)
       (Sqlfront.Lexer.tokenize key))

let key_of_shape t ~max_size shape =
  if max_size <= 0 then Sqlfront.Deparse.statement shape
  else
    match Shapes.find_opt t.keys shape with
    | Some key -> key
    | None ->
      let key = Sqlfront.Deparse.statement shape in
      if Shapes.length t.keys >= max_size then Shapes.reset t.keys;
      if float_free key then Shapes.add t.keys shape key;
      key

let make_entry t ~key ~version ~stmt ~shape groups =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    e_id = id;
    e_key = key;
    e_stmt = stmt;
    e_shape = shape;
    e_version = version;
    e_params = Sqlfront.Ast.params stmt;
    e_groups = List.map (fun g -> { g_index = g; g_dispatch = None }) groups;
    e_tick = 0;
  }

(* A group is rewritten, deparsed and named on its first dispatch, and
   memoized for the entry's lifetime: a skeleton holds statements only
   for the groups its shape has actually reached. *)
let dispatch t entry group_index ~rewrite =
  match List.find_opt (fun g -> g.g_index = group_index) entry.e_groups with
  | None -> None
  | Some { g_dispatch = Some d; _ } -> Some d
  | Some g ->
    let stmt = rewrite entry.e_stmt in
    let d =
      {
        d_stmt = stmt;
        d_wire =
          {
            Cluster.Connection.stmt_name =
              Printf.sprintf "citus_s%d_%d" entry.e_id group_index;
            stmt_text = Sqlfront.Deparse.statement stmt;
            stmt_live = true;
            stmt_retired = t.retired;
            stmt_plan = Engine.Executor.keep stmt;
          };
      }
    in
    g.g_dispatch <- Some d;
    Some d

(* An entry leaving the cache takes its worker-side statements with it:
   connections close them with their next bound execute. *)
let retire e =
  List.iter
    (fun g ->
      Option.iter (fun d -> Cluster.Connection.retire d.d_wire) g.g_dispatch)
    e.e_groups

(* Stable 8-hex shape id: [Hashtbl.hash] of the normalized shape text is
   deterministic across runs, and bounds the plancache.shape_seconds.*
   metric family to the set of distinct prepared shapes. *)
let fingerprint key = Printf.sprintf "%08x" (Hashtbl.hash key)

let size t = t.live

let slot t ~key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let fp = fingerprint key in
    let stat =
      {
        st_fingerprint = fp;
        st_seconds = Obs.Metric_names.plancache_shape_seconds fp;
        st_tier = "-";
        st_calls = 0;
        st_hits = 0;
        st_builds = 0;
        st_bypass = 0;
      }
    in
    let s = { stat; cached = None } in
    Hashtbl.replace t.slots key s;
    s

let evict t slot e =
  slot.cached <- None;
  t.live <- t.live - 1;
  retire e

type lookup = Hit of entry | Stale | Miss

let lookup t slot ~version =
  match slot.cached with
  | None -> Miss
  | Some e when e.e_version <> version ->
    (* the metadata moved underneath the skeleton: a stale cached
       deparse must never execute — discard, caller re-plans *)
    evict t slot e;
    Stale
  | Some e ->
    t.tick <- t.tick + 1;
    e.e_tick <- t.tick;
    Hit e

let find t ~key ~version =
  match Hashtbl.find_opt t.slots key with
  | None -> Miss
  | Some slot -> lookup t slot ~version

let store t ~max_size slot entry =
  if max_size <= 0 then 0
  else begin
    t.tick <- t.tick + 1;
    entry.e_tick <- t.tick;
    (match slot.cached with
     | Some old -> retire old
     | None -> t.live <- t.live + 1);
    slot.cached <- Some entry;
    let evicted = ref 0 in
    while t.live > max_size do
      let victim =
        Hashtbl.fold
          (fun _ s acc ->
            match s.cached, acc with
            | None, _ -> acc
            | Some e, Some (_, b) when b.e_tick <= e.e_tick -> acc
            | Some e, _ -> Some (s, e))
          t.slots None
      in
      match victim with
      | Some (s, e) ->
        evict t s e;
        incr evicted
      | None -> ()
    done;
    !evicted
  end

let stats t =
  Hashtbl.fold (fun k s acc -> (k, s.stat) :: acc) t.slots []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
