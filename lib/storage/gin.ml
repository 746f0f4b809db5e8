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
}

let create ~name () =
  {
    gin_name = name;
    page_rel = "gin:" ^ name;
    postings = Codes.create 1024;
    page_seq = 0;
  }

let name t = t.gin_name

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* In-place ascending heapsort of [a.(0 .. n-1)], typed for ints
   ([Array.sort] compares through the polymorphic primitive). *)
let sort_ints (a : int array) n =
  let rec sift i len =
    let c = (2 * i) + 1 in
    let c = if c + 1 < len && a.(c + 1) > a.(c) then c + 1 else c in
    if c < len && a.(c) > a.(i) then begin
      swap a i c;
      sift c len
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap a 0 last;
    sift 0 last
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
   | None -> ()
   | Some pool ->
     if p.page < 0 then begin
       p.page <- t.page_seq;
       t.page_seq <- t.page_seq + 1
     end;
     ignore
       (Buffer_pool.access pool { Buffer_pool.relation = t.page_rel; page_no = p.page }));
  p

(* First index in [lo, n) whose tid is >= [x]. *)
let seek (a : int array) n lo (x : int) =
  let lo = ref lo and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* A tid reused from the heap freelist can be below the largest one
   held, so it is placed by binary search and the tail shifts up (by
   hand: [Array.blit] would pay a write barrier per element). *)
let insert p (tid : int) =
  let i = seek p.tids p.n 0 tid in
  if i = p.n || p.tids.(i) <> tid then begin
    if p.n = Array.length p.tids then begin
      let bigger = Array.make (max 4 (2 * p.n)) 0 in
      Array.blit p.tids 0 bigger 0 p.n;
      p.tids <- bigger
    end;
    for k = p.n downto i + 1 do
      p.tids.(k) <- p.tids.(k - 1)
    done;
    p.tids.(i) <- tid;
    p.n <- p.n + 1
  end

let add ?pool t ~tid text =
  let cs = codes ~pad:true text in
  Array.iter (fun code -> insert (posting pool t code) tid) cs;
  Array.length cs

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

(* ginbulkdelete: one pass over every posting, dropping the tids in
   [dead] (ascending); returns how many of them some posting held. *)
let bulk_delete t dead =
  let nd = Array.length dead in
  let held = Bytes.make nd '0' in
  if nd > 0 then
    Codes.iter
      (fun _ p -> p.n <- filter p.tids p.n dead nd ~keep:false ~hit:(fun j -> Bytes.set held j '1'))
      t.postings;
  Bytes.fold_left (fun c b -> if b = '1' then c + 1 else c) 0 held

(* Intersect smallest-first into one scratch array, so each longer
   posting is searched only for the tids still standing. *)
let candidates ?pool t pattern =
  match codes ~pad:false pattern with
  | [||] -> None
  | cs ->
    let ps = Array.map (posting pool t) cs in
    Array.stable_sort (fun a b -> Int.compare a.n b.n) ps;
    let acc = Array.sub ps.(0).tids 0 ps.(0).n in
    let len = ref ps.(0).n in
    for k = 1 to Array.length ps - 1 do
      len := filter acc !len ps.(k).tids ps.(k).n ~keep:true ~hit:ignore
    done;
    Some (List.init !len (Array.get acc))

let clear t =
  Codes.reset t.postings;
  t.page_seq <- 0
