type xid = int

type target = Table of string | Row of string * int

type mode = Access_share | Row_exclusive | Access_exclusive | Row_lock

type outcome = Granted | Blocked of xid list

let conflicts a b =
  match a, b with
  | Access_exclusive, _ | _, Access_exclusive -> true
  | Row_lock, Row_lock -> true
  | (Access_share | Row_exclusive | Row_lock), _ -> false

type t = {
  (* target -> holders: (owner, mode) list *)
  held : (target, (xid * mode) list) Hashtbl.t;
  (* owner -> the targets of its grants, newest first (a target once per
     mode held): what [release_all] visits instead of every bucket *)
  owned : (xid, target list) Hashtbl.t;
  (* owner -> pending blocked request *)
  waiting : (xid, target * mode) Hashtbl.t;
}

let create () =
  { held = Hashtbl.create 64; owned = Hashtbl.create 16; waiting = Hashtbl.create 16 }

let holders t target = Option.value ~default:[] (Hashtbl.find_opt t.held target)

let acquire t ~owner target mode =
  let current = holders t target in
  if List.exists (fun (o, m) -> o = owner && m = mode) current then begin
    Hashtbl.remove t.waiting owner;
    Granted
  end
  else begin
    let conflicting =
      List.filter (fun (o, m) -> o <> owner && conflicts mode m) current
    in
    match conflicting with
    | [] ->
      Hashtbl.remove t.waiting owner;
      Hashtbl.replace t.held target ((owner, mode) :: current);
      Hashtbl.replace t.owned owner
        (target :: Option.value ~default:[] (Hashtbl.find_opt t.owned owner));
      Granted
    | _ ->
      Hashtbl.replace t.waiting owner (target, mode);
      Blocked (List.map fst conflicting)
  end

let cancel_wait t ~owner = Hashtbl.remove t.waiting owner

let reset t =
  Hashtbl.reset t.held;
  Hashtbl.reset t.owned;
  Hashtbl.reset t.waiting

let release_all t ~owner =
  Hashtbl.remove t.waiting owner;
  match Hashtbl.find_opt t.owned owner with
  | None -> ()
  | Some targets ->
    Hashtbl.remove t.owned owner;
    List.iter
      (fun target ->
        (* a target held in two modes is listed twice: the second visit
           finds the owner gone *)
        let holders = holders t target in
        if List.exists (fun (o, _) -> o = owner) holders then
          match List.filter (fun (o, _) -> o <> owner) holders with
          | [] -> Hashtbl.remove t.held target
          | remaining -> Hashtbl.replace t.held target remaining)
      targets

let wait_edges t =
  Hashtbl.fold
    (fun waiter (target, mode) acc ->
      let conflicting =
        List.filter
          (fun (o, m) -> o <> waiter && conflicts mode m)
          (holders t target)
      in
      List.fold_left (fun acc (holder, _) -> (waiter, holder) :: acc) acc
        conflicting)
    t.waiting []

let held_by t owner =
  Hashtbl.fold
    (fun target holders acc ->
      List.fold_left
        (fun acc (o, m) -> if o = owner then (target, m) :: acc else acc)
        acc holders)
    t.held []

(* Cycle search over the wait-for graph: depth-first from each waiter,
   following waiter->holder edges. Returns the nodes of the first cycle. *)
let detect_deadlock t =
  let edges = wait_edges t in
  let successors x = List.filter_map (fun (w, h) -> if w = x then Some h else None) edges in
  let rec dfs path visited x =
    if List.mem x path then Some (x :: path)
    else if List.mem x visited then None
    else
      let rec try_succ = function
        | [] -> None
        | s :: rest ->
          (match dfs (x :: path) visited s with
           | Some cycle -> Some cycle
           | None -> try_succ rest)
      in
      try_succ (successors x)
  in
  let starts = List.sort_uniq Int.compare (List.map fst edges) in
  let rec scan visited = function
    | [] -> None
    | s :: rest ->
      (match dfs [] visited s with
       | Some cycle ->
         (* Trim the path prefix that leads into the cycle: keep from the
            first occurrence of the repeated node. *)
         let repeated = List.hd cycle in
         let rec keep_until acc = function
           | [] -> acc
           | x :: rest ->
             if x = repeated && acc <> [] then List.rev (x :: acc)
             else keep_until (x :: acc) rest
         in
         let members = keep_until [] cycle in
         Some (List.sort_uniq Int.compare members)
       | None -> scan (s :: visited) rest)
  in
  scan [] starts
