(* One posting per trigram: its tids ascending in [tids.(0 .. n-1)], a
   capacity-doubling array. [page] is assigned on the first pool touch
   (-1 until then) and an emptied posting keeps its entry, so a trigram
   keeps its page for the index's life. *)
type posting = { mutable page : int; mutable tids : int array; mutable n : int }

type t = {
  gin_name : string;
  page_rel : string;  (** buffer-pool relation name, built once *)
  postings : (string, posting) Hashtbl.t;
  mutable page_seq : int;
}

let create ~name () =
  {
    gin_name = name;
    page_rel = "gin:" ^ name;
    postings = Hashtbl.create 1024;
    page_seq = 0;
  }

let name t = t.gin_name

(* pg_trgm: words are lowercased alphanumeric runs. An indexed word is
   padded "  w " so a word of length n yields n+1 trigrams; a query word
   is not, since the pattern can match mid-word. *)
let trigrams ~pad s =
  String.map
    (function
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | 'A' .. 'Z' as c -> Char.lowercase_ascii c
      | _ -> ' ')
    s
  |> String.split_on_char ' '
  |> List.concat_map (fun w ->
         let w = if pad && w <> "" then "  " ^ w ^ " " else w in
         List.init (max 0 (String.length w - 2)) (fun i -> String.sub w i 3))
  |> List.sort_uniq String.compare

let trigrams_of = trigrams ~pad:true
let query_trigrams = trigrams ~pad:false

let posting t key =
  match Hashtbl.find_opt t.postings key with
  | Some p -> p
  | None ->
    let p = { page = -1; tids = [||]; n = 0 } in
    Hashtbl.add t.postings key p;
    p

let touch pool t p =
  match pool with
  | None -> ()
  | Some pool ->
    if p.page < 0 then begin
      p.page <- t.page_seq;
      t.page_seq <- t.page_seq + 1
    end;
    ignore
      (Buffer_pool.access pool { Buffer_pool.relation = t.page_rel; page_no = p.page })

(* First index in [lo, n) whose tid is >= [x]. *)
let seek a n lo x =
  let lo = ref lo and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* A tid reused from the heap freelist can be below the largest one
   held, so it is placed by binary search and the tail shifts up (by
   hand: [Array.blit] would pay a write barrier per element). *)
let insert p tid =
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
  let tgs = trigrams_of text in
  List.iter
    (fun tg ->
      let p = posting t tg in
      touch pool t p;
      insert p tid)
    tgs;
  List.length tgs

(* Compact [a.(0 .. len-1)] in place to the tids whose presence in the
   ascending [b.(0 .. nb-1)] equals [keep], calling [hit] with the index
   of each one found there; returns the new length. *)
let filter a len b nb ~keep ~hit =
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
    Hashtbl.iter
      (fun _ p -> p.n <- filter p.tids p.n dead nd ~keep:false ~hit:(fun j -> Bytes.set held j '1'))
      t.postings;
  Bytes.fold_left (fun c b -> if b = '1' then c + 1 else c) 0 held

(* Intersect smallest-first into one scratch array, so each longer
   posting is searched only for the tids still standing. *)
let candidates ?pool t pattern =
  match query_trigrams pattern with
  | [] -> None
  | tgs ->
    let ps =
      List.map
        (fun tg ->
          let p = posting t tg in
          touch pool t p;
          p)
        tgs
      |> List.stable_sort (fun a b -> Int.compare a.n b.n)
    in
    let first = List.hd ps in
    let acc = Array.sub first.tids 0 first.n in
    let len =
      List.fold_left
        (fun len p -> filter acc len p.tids p.n ~keep:true ~hit:ignore)
        first.n (List.tl ps)
    in
    Some (List.init len (Array.get acc))

let clear t =
  Hashtbl.reset t.postings;
  t.page_seq <- 0
