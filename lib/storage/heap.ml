type xid = int

type tuple = {
  mutable xmin : xid;
  mutable xmax : xid;  (** 0 = never deleted *)
  mutable data : Datum.t array option;  (** None once vacuumed *)
}

type t = {
  heap_name : string;
  rpp : int;
  mutable slots : tuple array;
  mutable used : int;  (** slots.(0 .. used-1) have been allocated *)
  mutable freelist : int list;  (** reclaimed slots available for reuse *)
}

let create ~name ?(rows_per_page = 64) () =
  {
    heap_name = name;
    rpp = rows_per_page;
    slots = Array.init 16 (fun _ -> { xmin = 0; xmax = 0; data = None });
    used = 0;
    freelist = [];
  }


let rows_per_page t = t.rpp

let grow t =
  let cap = Array.length t.slots in
  if t.used >= cap then begin
    let bigger =
      Array.init (cap * 2) (fun i ->
          if i < cap then t.slots.(i)
          else { xmin = 0; xmax = 0; data = None })
    in
    t.slots <- bigger
  end

let insert t ~xid row =
  match t.freelist with
  | tid :: rest ->
    t.freelist <- rest;
    let s = t.slots.(tid) in
    s.xmin <- xid;
    s.xmax <- 0;
    s.data <- Some row;
    tid
  | [] ->
    grow t;
    let tid = t.used in
    t.used <- tid + 1;
    t.slots.(tid) <- { xmin = xid; xmax = 0; data = Some row };
    tid

(* Place a tuple version at an exact slot (WAL replay: the log records
   the tid each version originally occupied, and index entries reference
   tids, so replay must reproduce the layout exactly). *)
let insert_at t ~tid ~xid row =
  if tid < 0 then invalid_arg "Heap.insert_at: negative tid";
  while tid >= Array.length t.slots do
    let cap = Array.length t.slots in
    let bigger =
      Array.init (cap * 2) (fun i ->
          if i < cap then t.slots.(i)
          else { xmin = 0; xmax = 0; data = None })
    in
    t.slots <- bigger
  done;
  if tid >= t.used then t.used <- tid + 1;
  t.freelist <- List.filter (fun f -> f <> tid) t.freelist;
  let s = t.slots.(tid) in
  s.xmin <- xid;
  s.xmax <- 0;
  s.data <- Some row

let delete t ~xid ~tid =
  if tid < 0 || tid >= t.used then false
  else
    let s = t.slots.(tid) in
    match s.data with
    | None -> false
    | Some _ ->
      s.xmax <- xid;
      true

let header t ~tid =
  if tid < 0 || tid >= t.used then None
  else
    let s = t.slots.(tid) in
    match s.data with None -> None | Some _ -> Some (s.xmin, s.xmax)

let version_visible ~status ~snapshot ~my_xid ~xmin ~xmax =
  let mine x = match my_xid with Some m -> x = m | None -> false in
  let insert_visible =
    if mine xmin then true
    else
      status xmin = Txn.Manager.Committed && Txn.Snapshot.sees snapshot xmin
  in
  if not insert_visible then false
  else if xmax = 0 then true
  else if mine xmax then false
  else
    not
      (status xmax = Txn.Manager.Committed && Txn.Snapshot.sees snapshot xmax)

let touch_page pool t tid =
  match pool with
  | None -> ()
  | Some pool ->
    ignore
      (Buffer_pool.access pool
         { Buffer_pool.relation = t.heap_name; page_no = tid / t.rpp })

let fetch ?pool t ~tid ~status ~snapshot ~my_xid =
  if tid < 0 || tid >= t.used then None
  else begin
    touch_page pool t tid;
    let s = t.slots.(tid) in
    match s.data with
    | None -> None
    | Some row ->
      if version_visible ~status ~snapshot ~my_xid ~xmin:s.xmin ~xmax:s.xmax
      then Some row
      else None
  end

let scan ?pool t ~status ~snapshot ~my_xid ~f =
  let last_page = ref (-1) in
  for tid = 0 to t.used - 1 do
    let page = tid / t.rpp in
    if page <> !last_page then begin
      last_page := page;
      touch_page pool t tid
    end;
    let s = t.slots.(tid) in
    match s.data with
    | None -> ()
    | Some row ->
      if version_visible ~status ~snapshot ~my_xid ~xmin:s.xmin ~xmax:s.xmax
      then f tid row
  done

(* Visit every stored version regardless of visibility (index builds). *)
let scan_physical t ~f =
  for tid = 0 to t.used - 1 do
    let s = t.slots.(tid) in
    match s.data with
    | None -> ()
    | Some row -> f tid (s.xmin, s.xmax) row
  done

let vacuum t ~oldest ~status =
  let reclaimed = ref [] in
  for tid = 0 to t.used - 1 do
    let s = t.slots.(tid) in
    match s.data with
    | None -> ()
    | Some _ ->
      let insert_aborted = status s.xmin = Txn.Manager.Aborted in
      let delete_final =
        s.xmax <> 0
        && status s.xmax = Txn.Manager.Committed
        && s.xmax < oldest
      in
      if insert_aborted || delete_final then begin
        s.data <- None;
        s.xmin <- 0;
        s.xmax <- 0;
        t.freelist <- tid :: t.freelist;
        reclaimed := tid :: !reclaimed
      end
  done;
  Array.of_list (List.rev !reclaimed)

let live_estimate t = t.used - List.length t.freelist

let dead_estimate t =
  (* Count versions with a deleter set; cheap approximation used by the
     autovacuum trigger. *)
  let n = ref 0 in
  for tid = 0 to t.used - 1 do
    let s = t.slots.(tid) in
    if s.data <> None && s.xmax <> 0 then incr n
  done;
  !n

let page_count t = (t.used + t.rpp - 1) / t.rpp

let clear t =
  t.slots <- Array.init 16 (fun _ -> { xmin = 0; xmax = 0; data = None });
  t.used <- 0;
  t.freelist <- []

(* Rewrite every stored row (schema changes); headers are preserved. *)
let transform t f =
  for tid = 0 to t.used - 1 do
    let s = t.slots.(tid) in
    match s.data with None -> () | Some row -> s.data <- Some (f row)
  done
