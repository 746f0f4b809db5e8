type stripe = {
  xmin : int;
  nrows : int;
  columns : Datum.t array array;  (** columns.(c).(r) *)
  mins : Datum.t array;
  maxs : Datum.t array;
}

type t = {
  col_name : string;
  page_rel : string;  (** buffer-pool relation name, built once *)
  ncols : int;
  stripe_rows : int;
  values_per_page : int;
  mutable stripes : stripe list;  (** newest first *)
  mutable pending : (int * Datum.t array list) option;
      (** open stripe: (xid, rows newest-first) — flushed when full or when
          a different xid writes *)
  mutable page_seq : int;
}

let create ~name ~ncols ?(stripe_rows = 1000) ?(values_per_page = 1024) () =
  {
    col_name = name;
    page_rel = "col:" ^ name;
    ncols;
    stripe_rows;
    values_per_page;
    stripes = [];
    pending = None;
    page_seq = 0;
  }


let minmax rows c =
  List.fold_left
    (fun (mn, mx) (row : Datum.t array) ->
      let v = row.(c) in
      if Datum.is_null v then (mn, mx)
      else
        let mn = if Datum.is_null mn || Datum.compare v mn < 0 then v else mn in
        let mx = if Datum.is_null mx || Datum.compare v mx > 0 then v else mx in
        (mn, mx))
    (Datum.Null, Datum.Null) rows

let seal t xid rows =
  let rows = List.rev rows in
  let nrows = List.length rows in
  if nrows > 0 then begin
    let columns =
      Array.init t.ncols (fun c ->
          Array.of_list (List.map (fun (r : Datum.t array) -> r.(c)) rows))
    in
    let mins = Array.make t.ncols Datum.Null in
    let maxs = Array.make t.ncols Datum.Null in
    for c = 0 to t.ncols - 1 do
      let mn, mx = minmax rows c in
      mins.(c) <- mn;
      maxs.(c) <- mx
    done;
    t.stripes <- { xmin = xid; nrows; columns; mins; maxs } :: t.stripes
  end

let flush_pending t =
  match t.pending with
  | None -> ()
  | Some (xid, rows) ->
    t.pending <- None;
    seal t xid rows

let append t ~xid rows =
  (match t.pending with
   | Some (pxid, _) when pxid <> xid -> flush_pending t
   | Some _ | None -> ());
  let current = match t.pending with Some (_, r) -> r | None -> [] in
  let rec push acc n = function
    | [] -> (acc, n)
    | row :: rest ->
      if Array.length row <> t.ncols then
        invalid_arg "Columnar.append: row width mismatch";
      let acc = row :: acc in
      let n = n + 1 in
      if n >= t.stripe_rows then begin
        seal t xid acc;
        push [] 0 rest
      end
      else push acc n rest
  in
  let remaining, n = push current (List.length current) rows in
  t.pending <- (if n > 0 then Some (xid, remaining) else None)

let stripe_count t =
  List.length t.stripes + (match t.pending with Some _ -> 1 | None -> 0)

let visible_stripe ~status ~snapshot ~my_xid xid =
  (match my_xid with Some m when m = xid -> true | _ -> false)
  || (status xid = Txn.Manager.Committed && Txn.Snapshot.sees snapshot xid)

let touch_stripe pool t stripe_no columns nrows =
  match pool with
  | None -> ()
  | Some pool ->
    let pages_per_col = max 1 ((nrows + t.values_per_page - 1) / t.values_per_page) in
    List.iter
      (fun c ->
        for p = 0 to pages_per_col - 1 do
          ignore
            (Buffer_pool.access pool
               {
                 Buffer_pool.relation = t.page_rel;
                 page_no = (stripe_no * t.ncols * 64) + (c * 64) + p;
               })
        done)
      columns

let scan ?pool ?stripe_predicate t ~status ~snapshot ~my_xid ~columns ~f =
  let scan_rows stripe_no xid nrows get =
    ignore stripe_no;
    ignore xid;
    for r = 0 to nrows - 1 do
      let row = Array.make t.ncols Datum.Null in
      List.iter (fun c -> row.(c) <- get c r) columns;
      f row
    done
  in
  (* stripes are stored newest-first; emit oldest-first *)
  let sealed = List.rev t.stripes in
  List.iteri
    (fun stripe_no s ->
      if visible_stripe ~status ~snapshot ~my_xid s.xmin then begin
        let keep =
          match stripe_predicate with
          | None -> true
          | Some p -> p ~mins:s.mins ~maxs:s.maxs
        in
        if keep then begin
          touch_stripe pool t stripe_no columns s.nrows;
          scan_rows stripe_no s.xmin s.nrows (fun c r -> s.columns.(c).(r))
        end
      end)
    sealed;
  (* open stripe: no min/max yet, never skipped *)
  match t.pending with
  | None -> ()
  | Some (xid, rows) ->
    if visible_stripe ~status ~snapshot ~my_xid xid then begin
      let rows = Array.of_list (List.rev rows) in
      touch_stripe pool t (List.length sealed) columns (Array.length rows);
      scan_rows (List.length sealed) xid (Array.length rows) (fun c r ->
          rows.(r).(c))
    end

let pages_for_columns t ~columns =
  let ncols_projected = List.length columns in
  let per_stripe nrows =
    ncols_projected * max 1 ((nrows + t.values_per_page - 1) / t.values_per_page)
  in
  List.fold_left (fun acc s -> acc + per_stripe s.nrows) 0 t.stripes
  + match t.pending with Some (_, r) -> per_stripe (List.length r) | None -> 0

let clear t =
  t.stripes <- [];
  t.pending <- None
