(* The metadata-sync layer (Citus MX, §2 "any node"): every catalog
   mutation flows through here, and is applied to the origin catalog
   plus one full replica per metadata-synced node, in the same order
   everywhere. Replicas stay bit-identical because [Metadata]'s id
   sequences (shard ids, colocation ids, version) advance in lockstep
   under an identical op order — so a worker planning a fast-path query
   against its own replica routes to exactly the shards the bootstrap
   coordinator would, and [Metadata.version] moves identically on every
   node, invalidating the shared plan cache cluster-wide.

   Late attach replays the op log, modeling the initial catalog dump a
   real `citus_activate_node` ships before streaming deltas.

   Lint rule L16 enforces the discipline: outside this module (and
   [Metadata] itself), no code may call a catalog mutator directly. *)

type t = {
  origin : Metadata.t;
  mutable replicas : (string * Metadata.t) list;
      (* node name -> synced replica (the origin node is not listed) *)
  mutable log : (Metadata.t -> unit) list;  (* newest first *)
  metrics : Obs.Metrics.t;
}

let create ~metrics origin = { origin; replicas = []; log = []; metrics }

let origin t = t.origin

let replica t node = List.assoc_opt node t.replicas

(* Run one sanctioned mutation everywhere: origin first (its result is
   the caller's), then each synced replica, then append to the op log
   for nodes that attach later. *)
let apply t op =
  let r = op t.origin in
  List.iter
    (fun (_, m) ->
      ignore (op m);
      Obs.Metrics.inc t.metrics Obs.Metric_names.mx_metadata_syncs)
    t.replicas;
  t.log <- (fun m -> ignore (op m)) :: t.log;
  r

let attach t node =
  match List.assoc_opt node t.replicas with
  | Some m -> m
  | None ->
    let m =
      Metadata.create ~shard_count:(Metadata.default_shard_count t.origin) ()
    in
    let ops = List.rev t.log in
    List.iter (fun op -> op m) ops;
    if ops <> [] then
      Obs.Metrics.inc ~by:(List.length ops) t.metrics
        Obs.Metric_names.mx_metadata_syncs;
    t.replicas <- t.replicas @ [ (node, m) ];
    m

(* --- the sanctioned catalog mutators --- *)

let register_distributed ?replication_factor t ~table ~column ~ty ~colocate_with
    ~nodes =
  apply t (fun m ->
      Metadata.register_distributed ?replication_factor m ~table ~column ~ty
        ~colocate_with ~nodes)

let register_reference t ~table ~nodes =
  apply t (fun m -> Metadata.register_reference m ~table ~nodes)

let drop_table t name = apply t (fun m -> Metadata.drop_table m name)

let mark_placement t ~shard_id ~node state =
  apply t (fun m -> Metadata.mark_placement m ~shard_id ~node state)

let update_placement t ~shard_id ~from_node ~to_node =
  apply t (fun m -> Metadata.update_placement m ~shard_id ~from_node ~to_node)

let add_placement t ~shard_id ~node =
  apply t (fun m -> Metadata.add_placement m ~shard_id ~node)

let replace_shard t ~shard_id ~ranges =
  apply t (fun m -> Metadata.replace_shard m ~shard_id ~ranges)

let renumber_colocation t ~colocation_id =
  apply t (fun m -> Metadata.renumber_colocation m ~colocation_id)

let bump_version t = apply t Metadata.bump_version
