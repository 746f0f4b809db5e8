type t = {
  cluster : Cluster.Topology.t;
  citus : Citus.Api.t option;
  session : Engine.Instance.session;
  label : string;
}

let postgres ?(buffer_pages = 100_000) () =
  let cluster = Cluster.Topology.create ~buffer_pages ~workers:0 () in
  let session =
    Engine.Instance.connect
      cluster.Cluster.Topology.coordinator.Cluster.Topology.instance
  in
  { cluster; citus = None; session; label = "postgres" }

let citus ?(buffer_pages = 100_000) ?(shard_count = 32) ~workers () =
  let cluster = Cluster.Topology.create ~buffer_pages ~workers () in
  let api = Citus.Api.install ~shard_count cluster in
  let session = Citus.Api.connect api in
  let label =
    if workers = 0 then "citus-0+1" else Printf.sprintf "citus-%d+1" workers
  in
  { cluster; citus = Some api; session; label }


let exec t sql = Engine.Instance.exec t.session sql

let exec_on s sql = Engine.Instance.exec s sql

let distribute t ~table ~column ?colocate_with () =
  match t.citus with
  | None -> ()
  | Some api ->
    Citus.Api.create_distributed_table api ~table ~column ?colocate_with ()

let reference t ~table =
  match t.citus with
  | None -> ()
  | Some api -> Citus.Api.create_reference_table api ~table

let register_procedure t name f =
  List.iter
    (fun (node : Cluster.Topology.node) ->
      Engine.Instance.register_udf node.Cluster.Topology.instance name f)
    (Cluster.Topology.all_nodes t.cluster)

let count t table =
  match (exec t (Printf.sprintf "SELECT count(*) FROM %s" table)).Engine.Instance.rows with
  | [ [| Datum.Int n |] ] -> n
  | _ -> 0
