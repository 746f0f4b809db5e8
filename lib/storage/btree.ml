type key = Datum.t array

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

type bound = Incl of key | Excl of key | Unbounded

type node = {
  id : int;
  mutable keys : key list;  (** sorted; separators for internal nodes *)
  mutable body : body;
}

and body =
  | Leaf of { mutable postings : int list list; mutable next : node option }
      (** postings.(i) are the tids for keys.(i) *)
  | Internal of { mutable children : node list }
      (** length children = length keys + 1 *)

type t = {
  index_name : string;
  page_rel : string;  (** buffer-pool relation name, built once *)
  order : int;  (** max keys per node before splitting *)
  mutable root : node;
  mutable next_id : int;
  mutable entries : int;
  mutable nodes : int;
}

let fresh_node t keys body =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.nodes <- t.nodes + 1;
  { id; keys; body }

let create ~name ?(order = 32) () =
  let t =
    {
      index_name = name;
      page_rel = "idx:" ^ name;
      order;
      root = { id = 0; keys = []; body = Leaf { postings = []; next = None } };
      next_id = 1;
      entries = 0;
      nodes = 1;
    }
  in
  t

let name t = t.index_name

let touch pool t node =
  match pool with
  | None -> ()
  | Some pool ->
    ignore
      (Buffer_pool.access pool
         { Buffer_pool.relation = t.page_rel; page_no = node.id })

(* Position of the child to follow for [key] in an internal node: the
   number of separators <= key. *)
let child_index keys key =
  let rec go i = function
    | [] -> i
    | k :: rest -> if compare_keys key k < 0 then i else go (i + 1) rest
  in
  go 0 keys

let nth_child children i = List.nth children i

(* Insert into a sorted assoc list of (key, posting). *)
let rec leaf_insert keys postings key tid =
  match keys, postings with
  | [], [] -> ([ key ], [ [ tid ] ], true)
  | k :: krest, p :: prest ->
    let c = compare_keys key k in
    if c = 0 then (keys, (tid :: p) :: prest, false)
    else if c < 0 then (key :: keys, [ tid ] :: postings, true)
    else
      let ks, ps, added = leaf_insert krest prest key tid in
      (k :: ks, p :: ps, added)
  | _ -> assert false

let split_list l n =
  let rec go acc i = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (x :: acc) (i - 1) rest
  in
  go [] n l

(* Returns Some (separator, right_sibling) if the node split. *)
let rec insert_rec t node key tid =
  match node.body with
  | Leaf leaf ->
    let keys, postings, _added = leaf_insert node.keys leaf.postings key tid in
    node.keys <- keys;
    leaf.postings <- postings;
    if List.length node.keys > t.order then begin
      let half = List.length node.keys / 2 in
      let lkeys, rkeys = split_list node.keys half in
      let lpost, rpost = split_list leaf.postings half in
      let right =
        fresh_node t rkeys (Leaf { postings = rpost; next = leaf.next })
      in
      node.keys <- lkeys;
      leaf.postings <- lpost;
      leaf.next <- Some right;
      Some (List.hd rkeys, right)
    end
    else None
  | Internal internal ->
    let i = child_index node.keys key in
    let child = nth_child internal.children i in
    (match insert_rec t child key tid with
     | None -> None
     | Some (sep, right) ->
       (* splice sep into keys at position i, right after child i *)
       let rec splice_keys j = function
         | [] -> [ sep ]
         | k :: rest -> if j = i then sep :: k :: rest else k :: splice_keys (j + 1) rest
       in
       let rec splice_children j = function
         | [] -> [ right ]
         | c :: rest ->
           if j = i then c :: right :: rest else c :: splice_children (j + 1) rest
       in
       node.keys <- splice_keys 0 node.keys;
       internal.children <- splice_children 0 internal.children;
       if List.length node.keys > t.order then begin
         let half = List.length node.keys / 2 in
         let lkeys, rest = split_list node.keys half in
         (match rest with
          | [] -> assert false
          | sep_up :: rkeys ->
            let lchildren, rchildren =
              split_list internal.children (half + 1)
            in
            let right_node =
              fresh_node t rkeys (Internal { children = rchildren })
            in
            node.keys <- lkeys;
            internal.children <- lchildren;
            Some (sep_up, right_node))
       end
       else None)

let insert t key tid =
  t.entries <- t.entries + 1;
  match insert_rec t t.root key tid with
  | None -> ()
  | Some (sep, right) ->
    let old_root = t.root in
    t.root <-
      fresh_node t [ sep ] (Internal { children = [ old_root; right ] })

(* Find the leaf that would contain [key], touching pages on the way. *)
let rec descend pool t node key =
  touch pool t node;
  match node.body with
  | Leaf _ -> node
  | Internal internal ->
    descend pool t (nth_child internal.children (child_index node.keys key)) key

let find_eq ?pool t key =
  let leaf = descend pool t t.root key in
  match leaf.body with
  | Leaf l ->
    let rec go keys postings =
      match keys, postings with
      | [], [] -> []
      | k :: krest, p :: prest ->
        if compare_keys k key = 0 then p
        else if compare_keys k key > 0 then []
        else go krest prest
      | _ -> assert false
    in
    go leaf.keys l.postings
  | Internal _ -> assert false

let remove t key tid =
  let leaf = descend None t t.root key in
  match leaf.body with
  | Leaf l ->
    let rec go keys postings =
      match keys, postings with
      | [], [] -> ([], [])
      | k :: krest, p :: prest ->
        if compare_keys k key = 0 then begin
          let p' = List.filter (fun x -> x <> tid) p in
          if List.length p' < List.length p then t.entries <- t.entries - 1;
          if p' = [] then (krest, prest) else (k :: krest, p' :: prest)
        end
        else
          let ks, ps = go krest prest in
          (k :: ks, p :: ps)
      | _ -> assert false
    in
    let ks, ps = go leaf.keys l.postings in
    leaf.keys <- ks;
    l.postings <- ps
  | Internal _ -> assert false

let in_lower bound key =
  match bound with
  | Unbounded -> true
  | Incl b -> compare_keys key b >= 0
  | Excl b -> compare_keys key b > 0

let in_upper bound key =
  match bound with
  | Unbounded -> true
  | Incl b -> compare_keys key b <= 0
  | Excl b -> compare_keys key b < 0

let range ?pool t ~lower ~upper =
  let start_key = match lower with Incl k | Excl k -> k | Unbounded -> [||] in
  let leaf =
    match lower with
    | Unbounded ->
      (* leftmost leaf *)
      let rec leftmost node =
        touch pool t node;
        match node.body with
        | Leaf _ -> node
        | Internal i -> leftmost (List.hd i.children)
      in
      leftmost t.root
    | Incl _ | Excl _ -> descend pool t t.root start_key
  in
  let out = ref [] in
  let rec walk node =
    touch pool t node;
    match node.body with
    | Internal _ -> assert false
    | Leaf l ->
      let continue = ref true in
      List.iter2
        (fun k p ->
          if in_upper upper k then begin
            if in_lower lower k then
              List.iter (fun tid -> out := (k, tid) :: !out) (List.rev p)
          end
          else continue := false)
        node.keys l.postings;
      if !continue then
        match l.next with Some next -> walk next | None -> ()
  in
  walk leaf;
  List.rev !out

let prefix ?pool t p =
  let plen = Array.length p in
  let matches k =
    Array.length k >= plen
    &&
    let rec go i = i >= plen || (Datum.compare k.(i) p.(i) = 0 && go (i + 1)) in
    go 0
  in
  let leaf = descend pool t t.root p in
  let out = ref [] in
  let rec walk node =
    touch pool t node;
    match node.body with
    | Internal _ -> assert false
    | Leaf l ->
      let continue = ref true in
      List.iter2
        (fun k post ->
          if matches k then
            List.iter (fun tid -> out := (k, tid) :: !out) (List.rev post)
          else if compare_keys k p > 0 then continue := false)
        node.keys l.postings;
      if !continue then
        match l.next with Some next -> walk next | None -> ()
  in
  walk leaf;
  List.rev !out

let fold ?pool t ~init ~f =
  range ?pool t ~lower:Unbounded ~upper:Unbounded
  |> List.fold_left (fun acc (k, tid) -> f acc k tid) init

let entry_count t = t.entries

let rec depth_of node =
  match node.body with
  | Leaf _ -> 1
  | Internal i -> 1 + depth_of (List.hd i.children)

let depth t = depth_of t.root

let page_count t = t.nodes

let clear t =
  t.root <- { id = 0; keys = []; body = Leaf { postings = []; next = None } };
  t.next_id <- 1;
  t.entries <- 0;
  t.nodes <- 1
