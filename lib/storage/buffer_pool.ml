type page_id = { relation : string; page_no : int }

type stats = { hits : int; misses : int; evictions : int }

(* Callers build a relation name once per index or heap, so the [==] test
   settles almost every probe before [String.equal] runs. *)
module Page_tbl = Hashtbl.Make (struct
  type t = page_id

  let equal a b =
    a.page_no = b.page_no
    && (a.relation == b.relation || String.equal a.relation b.relation)

  let hash p = Hashtbl.seeded_hash p.page_no p.relation
end)

(* LRU as an intrusive doubly-linked ring through a sentinel: a hit
   relinks two nodes and allocates nothing. *)
type node = { mutable page : page_id; mutable prev : node; mutable next : node }

type t = {
  cap : int;
  index : node Page_tbl.t;
  ring : node;  (** sentinel: [ring.next] most, [ring.prev] least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be > 0";
  let rec ring = { page = { relation = ""; page_no = -1 }; prev = ring; next = ring } in
  {
    cap = capacity;
    index = Page_tbl.create (min capacity 4096);
    ring;
    hits = 0;
    misses = 0;
    evictions = 0;
  }


let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let r = t.ring in
  n.prev <- r;
  n.next <- r.next;
  r.next.prev <- n;
  r.next <- n

let access t page =
  match Page_tbl.find t.index page with
  | n ->
    t.hits <- t.hits + 1;
    unlink n;
    push_front t n;
    true
  | exception Not_found ->
    t.misses <- t.misses + 1;
    let n =
      if Page_tbl.length t.index >= t.cap then begin
        (* evict the least recently used page and reuse its node *)
        let lru = t.ring.prev in
        unlink lru;
        Page_tbl.remove t.index lru.page;
        t.evictions <- t.evictions + 1;
        lru.page <- page;
        lru
      end
      else { page; prev = t.ring; next = t.ring }
    in
    Page_tbl.add t.index page n;
    push_front t n;
    false

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let clear t =
  Page_tbl.reset t.index;
  t.ring.prev <- t.ring;
  t.ring.next <- t.ring

let cached_pages t = Page_tbl.length t.index
