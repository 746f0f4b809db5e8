type key = Datum.t array

let compare_keys (a : key) (b : key) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < n do
    c := Datum.compare a.(!i) b.(!i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare la lb

type bound = Incl of key | Excl of key | Unbounded

type leaf = {
  leaf_id : int;
  mutable keys : key array;  (** sorted *)
  mutable postings : int list array;  (** tids of keys.(i), newest first *)
  mutable next : leaf option;  (** right sibling *)
}

type node = Leaf of leaf | Internal of internal

(* Child i holds the keys k with seps.(i-1) <= k < seps.(i). *)
and internal = {
  node_id : int;
  mutable seps : key array;  (** sorted *)
  mutable children : node array;  (** one more than seps *)
}

type t = {
  page_rel : string;  (** buffer-pool relation name, built once *)
  order : int;  (** max keys per node before splitting *)
  mutable root : node;
  mutable next_id : int;
  mutable entries : int;
  mutable nodes : int;
}

let empty_root () =
  Leaf { leaf_id = 0; keys = [||]; postings = [||]; next = None }

let create ~name ?(order = 32) () =
  {
    page_rel = "idx:" ^ name;
    order;
    root = empty_root ();
    next_id = 1;
    entries = 0;
    nodes = 1;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.nodes <- t.nodes + 1;
  id

let touch pool t page_no =
  match pool with
  | None -> ()
  | Some pool ->
    ignore (Buffer_pool.access pool { Buffer_pool.relation = t.page_rel; page_no })

(* Binary search: the first position in sorted [keys] whose key is past
   [key] (> when [past_equal], >= otherwise). An internal node follows the
   child at the first separator > key; a leaf holds key, if at all, at the
   first position >= key. *)
let search ~past_equal keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = compare_keys keys.(mid) key in
    if c < 0 || (past_equal && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

let holds keys i key = i < Array.length keys && compare_keys keys.(i) key = 0

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* Inserts below [node], touching each node on the way down. Returns
   [Some (separator, right sibling)] if [node] split: the left half keeps
   len/2 keys, and an internal node pushes key len/2 up. *)
let rec insert_rec pool t node key tid =
  match node with
  | Leaf l ->
    touch pool t l.leaf_id;
    let i = search ~past_equal:false l.keys key in
    if holds l.keys i key then begin
      l.postings.(i) <- tid :: l.postings.(i);
      None
    end
    else begin
      l.keys <- insert_at l.keys i key;
      l.postings <- insert_at l.postings i [ tid ];
      let len = Array.length l.keys in
      if len <= t.order then None
      else
        let half = len / 2 in
        let right =
          {
            leaf_id = fresh_id t;
            keys = Array.sub l.keys half (len - half);
            postings = Array.sub l.postings half (len - half);
            next = l.next;
          }
        in
        l.keys <- Array.sub l.keys 0 half;
        l.postings <- Array.sub l.postings 0 half;
        l.next <- Some right;
        Some (right.keys.(0), Leaf right)
    end
  | Internal n ->
    touch pool t n.node_id;
    let i = search ~past_equal:true n.seps key in
    (match insert_rec pool t n.children.(i) key tid with
     | None -> None
     | Some (sep, right) ->
       n.seps <- insert_at n.seps i sep;
       n.children <- insert_at n.children (i + 1) right;
       let len = Array.length n.seps in
       if len <= t.order then None
       else
         let half = len / 2 in
         let right =
           {
             node_id = fresh_id t;
             seps = Array.sub n.seps (half + 1) (len - half - 1);
             children = Array.sub n.children (half + 1) (len - half);
           }
         in
         let up = n.seps.(half) in
         n.seps <- Array.sub n.seps 0 half;
         n.children <- Array.sub n.children 0 (half + 1);
         Some (up, Internal right))

let insert ?pool t key tid =
  t.entries <- t.entries + 1;
  match insert_rec pool t t.root key tid with
  | None -> ()
  | Some (sep, right) ->
    let node_id = fresh_id t in
    t.root <- Internal { node_id; seps = [| sep |]; children = [| t.root; right |] }

(* The leaf that would hold [key], touching every node on the way. *)
let rec descend pool t node key =
  match node with
  | Leaf l ->
    touch pool t l.leaf_id;
    l
  | Internal n ->
    touch pool t n.node_id;
    descend pool t n.children.(search ~past_equal:true n.seps key) key

let find_eq ?pool t key =
  let l = descend pool t t.root key in
  let i = search ~past_equal:false l.keys key in
  if holds l.keys i key then l.postings.(i) else []

(* btbulkdelete: one walk of the leaf chain drops the tids in [dead]
   (ascending) from every posting, and each key left with no tid from
   its leaf; nodes never merge. *)
let bulk_delete t dead =
  let nd = Array.length dead in
  (* a bitmap over the tids up to the last dead one *)
  let bits = Bytes.make (if nd = 0 then 0 else dead.(nd - 1) + 1) '\000' in
  Array.iter (fun tid -> Bytes.set bits tid '\001') dead;
  let is_dead tid = tid < Bytes.length bits && Bytes.get bits tid = '\001' in
  let held = ref 0 in
  let rec leftmost = function Leaf l -> l | Internal n -> leftmost n.children.(0) in
  let rec sweep l =
    let emptied = ref false in
    Array.iteri
      (fun i post ->
        if List.exists is_dead post then begin
          let kept = List.filter (fun tid -> not (is_dead tid)) post in
          held := !held + List.length post - List.length kept;
          l.postings.(i) <- kept;
          if kept = [] then emptied := true
        end)
      l.postings;
    if !emptied then begin
      let w = ref 0 in
      Array.iteri
        (fun i post ->
          if post <> [] then begin
            l.keys.(!w) <- l.keys.(i);
            l.postings.(!w) <- post;
            incr w
          end)
        l.postings;
      l.keys <- Array.sub l.keys 0 !w;
      l.postings <- Array.sub l.postings 0 !w
    end;
    Option.iter sweep l.next
  in
  if nd > 0 then sweep (leftmost t.root);
  t.entries <- t.entries - !held;
  !held

(* (k, tid) for each tid of [post] (newest first) onto [acc]; the walk
   reverses its output once, so tids come out oldest first. *)
let rec push k post acc =
  match post with [] -> acc | tid :: rest -> (k, tid) :: push k rest acc

(* Entries in key order from position [i] of leaf [l] on, while [inside]
   holds. [inside] must hold on a prefix of the key order. The walk goes on
   to the next leaf iff this one is empty or its last key is inside, and
   touches its first leaf again. *)
let walk pool t ~inside l i =
  let out = ref [] in
  let rec go l i =
    touch pool t l.leaf_id;
    let n = Array.length l.keys in
    let j = ref i in
    while !j < n && inside l.keys.(!j) do
      out := push l.keys.(!j) l.postings.(!j) !out;
      incr j
    done;
    let last_inside = if !j > i then !j = n else n = 0 || inside l.keys.(n - 1) in
    match l.next with Some next when last_inside -> go next 0 | _ -> ()
  in
  go l i;
  List.rev !out

let range ?pool t ~lower ~upper =
  (* the empty key sorts first: Unbounded starts at the leftmost leaf *)
  let start, past_equal =
    match lower with
    | Incl k -> (k, false)
    | Excl k -> (k, true)
    | Unbounded -> ([||], false)
  in
  let inside k =
    match upper with
    | Unbounded -> true
    | Incl b -> compare_keys k b <= 0
    | Excl b -> compare_keys k b < 0
  in
  let l = descend pool t t.root start in
  walk pool t ~inside l (search ~past_equal l.keys start)

let prefix ?pool t p =
  let plen = Array.length p in
  let has_prefix k =
    Array.length k >= plen
    &&
    let i = ref 0 in
    while !i < plen && Datum.compare k.(!i) p.(!i) = 0 do incr i done;
    !i = plen
  in
  let l = descend pool t t.root p in
  walk pool t
    ~inside:(fun k -> has_prefix k || compare_keys k p < 0)
    l
    (search ~past_equal:false l.keys p)

let entry_count t = t.entries

let rec depth_of = function
  | Leaf _ -> 1
  | Internal n -> 1 + depth_of n.children.(0)

let depth t = depth_of t.root

let page_count t = t.nodes

let clear t =
  t.root <- empty_root ();
  t.next_id <- 1;
  t.entries <- 0;
  t.nodes <- 1
