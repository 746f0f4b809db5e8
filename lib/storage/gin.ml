(* One posting per trigram: its tids ascending in [tids.(0 .. n-1)], a
   capacity-doubling array. [page] is assigned on the first pool touch
   (-1 until then) and an emptied posting keeps its entry, so a trigram
   keeps its page for the index's life. *)
type posting = { mutable page : int; mutable tids : int array; mutable n : int }

module Codes = Hashtbl.Make (Int)

type t = {
  gin_name : string;
  page_rel : string;  (** buffer-pool relation name, built once *)
  postings : posting Codes.t;
  mutable page_seq : int;
  mutable pending : int array;
      (** fast-update list: [pending.(0 .. npending-1)] are packed
          entries, one run of ascending codes per added row *)
  mutable npending : int;
}

(* A pending entry is [code lsl tid_bits lor tid], so sorting the packed
   ints orders them by (code, tid). Codes take 24 bits, tids the 38
   below them. *)
let tid_bits = 38

let tid_mask = (1 lsl tid_bits) - 1

(* Entries past which [add] merges the list itself (PostgreSQL's
   [gin_pending_list_limit]); a constant, like [autovacuum_threshold]. *)
let pending_limit = 8192

(* The pending list's one pool page, numbered apart from the postings'. *)
let pending_page = -1

let create ~name () =
  {
    gin_name = name;
    page_rel = "gin:" ^ name;
    postings = Codes.create 1024;
    page_seq = 0;
    pending = [||];
    npending = 0;
  }


(* Ascending sort of [a.(0 .. n-1)], a natural merge sort typed for ints
   ([Array.sort] compares through the polymorphic primitive): adjacent
   ascending runs are merged pairwise through one buffer. The pending
   list is one run per added row, so it takes about log2(rows) passes. *)
let sort_ints (a : int array) n =
  let bounds = Array.make (n + 2) 0 and runs = ref 1 in
  for i = 1 to n - 1 do
    if a.(i) < a.(i - 1) then begin
      bounds.(!runs) <- i;
      incr runs
    end
  done;
  bounds.(!runs) <- n;
  let src = ref a and dst = ref (if !runs > 1 then Array.make n 0 else a) in
  while !runs > 1 do
    let s = !src and d = !dst and out = ref 0 in
    for r = 0 to (!runs - 1) / 2 do
      (* bounds.(!runs) = n closes a last run that has no partner *)
      let lo = bounds.(2 * r) in
      let mid = bounds.(min ((2 * r) + 1) !runs) and hi = bounds.(min ((2 * r) + 2) !runs) in
      let i = ref lo and j = ref mid in
      for w = lo to hi - 1 do
        if !j >= hi || (!i < mid && s.(!i) <= s.(!j)) then begin
          d.(w) <- s.(!i);
          incr i
        end
        else begin
          d.(w) <- s.(!j);
          incr j
        end
      done;
      bounds.(!out) <- lo;
      incr out
    done;
    bounds.(!out) <- n;
    runs := !out;
    src := d;
    dst := s
  done;
  if !src != a then
    for i = 0 to n - 1 do
      a.(i) <- !src.(i)
    done

let scratch = Array.make 1024 0

(* pg_trgm: words are lowercased alphanumeric runs. An indexed word is
   padded "  w " so a word of length n yields n+1 trigrams; a query word
   is not, since the pattern can match mid-word. A trigram is the int
   [b0 lsl 16 lor b1 lsl 8 lor b2] of its bytes, so codes order as the
   three-byte strings do. One pass over [s] rolls the last three bytes
   of the current word; the codes come back ascending and distinct. *)
let codes ~pad s =
  let len = String.length s in
  (* at most one code per byte plus one per word end; a long text gets
     its own array, so the reused [scratch] stays small *)
  let a = if 2 * len < Array.length scratch then scratch else Array.make ((2 * len) + 1) 0 in
  let n = ref 0 and w = ref 0x2020 and run = ref 0 in
  for i = 0 to len do
    let c =
      if i = len then 0
      else
        match s.[i] with
        | ('a' .. 'z' | '0' .. '9') as c -> Char.code c
        | 'A' .. 'Z' as c -> Char.code c + 32
        | _ -> 0
    in
    (* a padded word's last trigram ends in a space *)
    if c <> 0 || (pad && !run > 0) then begin
      w := ((!w lsl 8) lor if c = 0 then 0x20 else c) land 0xFFFFFF;
      if pad || !run >= 2 then begin
        a.(!n) <- !w;
        incr n
      end
    end;
    if c = 0 then begin
      w := 0x2020;
      run := 0
    end
    else incr run
  done;
  sort_ints a !n;
  let d = ref (min !n 1) in
  for k = 1 to !n - 1 do
    if a.(k) <> a.(!d - 1) then begin
      a.(!d) <- a.(k);
      incr d
    end
  done;
  Array.sub a 0 !d

let touch pool t page_no =
  match pool with
  | None -> ()
  | Some pool -> ignore (Buffer_pool.access pool { Buffer_pool.relation = t.page_rel; page_no })

(* The posting of [code], created empty on first use; with a [pool],
   its page is touched (and numbered on its first touch). *)
let posting pool t code =
  let p =
    match Codes.find_opt t.postings code with
    | Some p -> p
    | None ->
      let p = { page = -1; tids = [||]; n = 0 } in
      Codes.add t.postings code p;
      p
  in
  (match pool with
   | Some _ when p.page < 0 ->
     p.page <- t.page_seq;
     t.page_seq <- t.page_seq + 1
   | _ -> ());
  touch pool t p.page;
  p

(* First index in [lo, n) whose tid is >= [x]. *)
let seek (a : int array) n lo (x : int) =
  let lo = ref lo and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem p (tid : int) =
  let i = seek p.tids p.n 0 tid in
  i < p.n && p.tids.(i) = tid

(* A fresh array of the first power-of-two slots (from 4) reaching
   [need], holding [a.(0 .. n-1)] copied by hand: [Array.blit] would pay
   a write barrier per element. Capacities are therefore those repeated
   doubling gives. *)
let grow (a : int array) n need =
  let rec cap c = if c >= need then c else cap (2 * c) in
  let b = Array.make (cap 4) 0 in
  for i = 0 to n - 1 do
    b.(i) <- a.(i)
  done;
  b

(* Merge one code's pending run [a.(lo .. hi-1)] (tids ascending, maybe
   repeated) into [p] in one backward pass; a tid [p] holds or the run
   repeats is written once, and the slots those skips leave free below
   the merged tail are closed at the end. *)
let merge p (a : int array) lo hi =
  let n = p.n in
  let top = n + (hi - lo) - 1 in
  if top >= Array.length p.tids then p.tids <- grow p.tids n (top + 1);
  let d = p.tids and i = ref (n - 1) and j = ref (hi - 1) and w = ref top in
  while !j >= lo do
    let x = a.(!j) land tid_mask in
    if !i >= 0 && d.(!i) > x then begin
      d.(!w) <- d.(!i);
      decr i;
      decr w
    end
    else begin
      if (!i < 0 || d.(!i) <> x) && (!w = top || d.(!w + 1) <> x) then begin
        d.(!w) <- x;
        decr w
      end;
      decr j
    end
  done;
  let gap = !w - !i in
  if gap > 0 then
    for q = !w + 1 to top do
      d.(q - gap) <- d.(q)
    done;
  p.n <- top + 1 - gap

(* ginInsertCleanup: sort the pending entries by (code, tid), merge each
   code's run into its posting (touching its page), and release the
   list's storage. *)
let cleanup ?pool t =
  let a = t.pending and m = t.npending in
  sort_ints a m;
  let i = ref 0 in
  while !i < m do
    let code = a.(!i) lsr tid_bits in
    let j = ref (!i + 1) in
    while !j < m && a.(!j) lsr tid_bits = code do
      incr j
    done;
    merge (posting pool t code) a !i !j;
    i := !j
  done;
  t.pending <- [||];
  t.npending <- 0

(* The pooled add that first names a trigram creates its posting and
   touches (numbers) its page, so a first touch, the pool miss the cost
   model prices, falls on the op that brought the trigram in, not on a
   later cleanup; other codes touch only the pending page. *)
let add ?pool t ~tid text =
  let cs = codes ~pad:true text in
  let n = Array.length cs in
  if n > 0 then begin
    (match pool with
     | None -> ()
     | Some _ ->
       Array.iter
         (fun code ->
           match Codes.find_opt t.postings code with
           | Some p when p.page >= 0 -> ()
           | _ -> ignore (posting pool t code))
         cs);
    let m = t.npending in
    if m + n > Array.length t.pending then t.pending <- grow t.pending m (m + n);
    for k = 0 to n - 1 do
      t.pending.(m + k) <- (cs.(k) lsl tid_bits) lor tid
    done;
    t.npending <- m + n;
    touch pool t pending_page;
    if t.npending >= pending_limit then cleanup ?pool t
  end;
  n

(* Compact [a.(0 .. len-1)] in place to the tids whose presence in the
   ascending [b.(0 .. nb-1)] equals [keep], calling [hit] with the index
   of each one found there; returns the new length. *)
let filter (a : int array) len (b : int array) nb ~keep ~hit =
  let w = ref 0 and j = ref 0 in
  for k = 0 to len - 1 do
    let x = a.(k) in
    j := seek b nb !j x;
    let found = !j < nb && b.(!j) = x in
    if found then hit !j;
    if found = keep then begin
      a.(!w) <- x;
      incr w
    end
  done;
  !w

(* ginbulkdelete: merge the pending list, then one pass over every
   posting drops the tids in [dead] (ascending); returns how many of
   them some posting held. *)
let bulk_delete ?pool t dead =
  cleanup ?pool t;
  let nd = Array.length dead in
  let held = Bytes.make nd '0' in
  if nd > 0 then
    Codes.iter
      (fun _ p -> p.n <- filter p.tids p.n dead nd ~keep:false ~hit:(fun j -> Bytes.set held j '1'))
      t.postings;
  Bytes.fold_left (fun c b -> if b = '1' then c + 1 else c) 0 held

(* Pending tids holding every query code [cs.(q)] in their pending
   entries or in that code's posting [ps.(q)], ascending. A pending
   entry on a query code becomes the key [tid * nq + q]; sorted, the
   keys group by tid. Every read scans the whole list, so a 32-bit mask
   of the query codes turns most entries away before the binary search. *)
let pending_matches t cs ps =
  let nq = Array.length cs in
  let mask = Array.fold_left (fun m c -> m lor (1 lsl ((c lxor (c lsr 8)) land 31))) 0 cs in
  let pending = t.pending and h = ref [||] and nh = ref 0 in
  for k = 0 to t.npending - 1 do
    let c = pending.(k) lsr tid_bits in
    if mask land (1 lsl ((c lxor (c lsr 8)) land 31)) <> 0 then begin
      let q = seek cs nq 0 c in
      if q < nq && cs.(q) = c then begin
        if !nh = Array.length !h then h := grow !h !nh (!nh + 1);
        !h.(!nh) <- ((pending.(k) land tid_mask) * nq) + q;
        incr nh
      end
    end
  done;
  let h = !h and nh = !nh in
  sort_ints h nh;
  let out = ref [] and g = ref 0 in
  while !g < nh do
    let tid = h.(!g) / nq and e = ref !g in
    while !e < nh && h.(!e) / nq = tid do
      incr e
    done;
    let holds q =
      let i = seek h !e !g ((tid * nq) + q) in
      (i < !e && h.(i) = (tid * nq) + q) || mem ps.(q) tid
    in
    let rec all q = q = nq || (holds q && all (q + 1)) in
    if all 0 then out := tid :: !out;
    g := !e
  done;
  List.rev !out

(* Intersect smallest-first into one scratch array, so each longer
   posting is searched only for the tids still standing; then add the
   pending rows that hold every code. *)
let candidates ?pool t pattern =
  match codes ~pad:false pattern with
  | [||] -> None
  | cs ->
    let ps = Array.map (posting pool t) cs in
    let extra =
      if t.npending = 0 then []
      else begin
        touch pool t pending_page;
        pending_matches t cs ps
      end
    in
    Array.stable_sort (fun a b -> Int.compare a.n b.n) ps;
    let acc = Array.sub ps.(0).tids 0 ps.(0).n in
    let len = ref ps.(0).n in
    for k = 1 to Array.length ps - 1 do
      len := filter acc !len ps.(k).tids ps.(k).n ~keep:true ~hit:ignore
    done;
    let tids = List.init !len (Array.get acc) in
    Some (match extra with [] -> tids | _ -> List.sort_uniq Int.compare (extra @ tids))

let clear t =
  Codes.reset t.postings;
  t.page_seq <- 0;
  t.pending <- [||];
  t.npending <- 0
