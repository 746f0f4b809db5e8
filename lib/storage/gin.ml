module Int_set = Set.Make (Int)

type t = {
  gin_name : string;
  page_rel : string;  (** buffer-pool relation name, built once *)
  postings : (string, Int_set.t ref) Hashtbl.t;
  mutable page_seq : int;
  page_of_key : (string, int) Hashtbl.t;
}

let create ~name () =
  {
    gin_name = name;
    page_rel = "gin:" ^ name;
    postings = Hashtbl.create 1024;
    page_seq = 0;
    page_of_key = Hashtbl.create 1024;
  }

let name t = t.gin_name

(* pg_trgm: words are lowercased alphanumeric runs, padded "  w " so a word
   of length n yields n+1 trigrams. *)
let words s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | _ -> flush ())
    s;
  flush ();
  List.rev !out

let trigrams_of s =
  let of_word w =
    let padded = "  " ^ w ^ " " in
    let n = String.length padded in
    let rec go i acc =
      if i + 3 > n then List.rev acc else go (i + 1) (String.sub padded i 3 :: acc)
    in
    go 0 []
  in
  List.concat_map of_word (words s) |> List.sort_uniq String.compare

(* Trigrams usable for a substring query: no word-boundary padding, since
   the pattern can match mid-word. *)
let query_trigrams pattern =
  let of_word w =
    let n = String.length w in
    let rec go i acc =
      if i + 3 > n then List.rev acc else go (i + 1) (String.sub w i 3 :: acc)
    in
    go 0 []
  in
  List.concat_map of_word (words pattern) |> List.sort_uniq String.compare

let page_of t key =
  match Hashtbl.find_opt t.page_of_key key with
  | Some p -> p
  | None ->
    let p = t.page_seq in
    t.page_seq <- p + 1;
    Hashtbl.replace t.page_of_key key p;
    p

let touch pool t key =
  match pool with
  | None -> ()
  | Some pool ->
    ignore
      (Buffer_pool.access pool
         { Buffer_pool.relation = t.page_rel; page_no = page_of t key })

let add ?pool t ~tid text =
  let tgs = trigrams_of text in
  List.iter
    (fun tg ->
      touch pool t tg;
      match Hashtbl.find_opt t.postings tg with
      | Some set -> set := Int_set.add tid !set
      | None -> Hashtbl.replace t.postings tg (ref (Int_set.singleton tid)))
    tgs;
  List.length tgs

let remove t ~tid text =
  List.iter
    (fun tg ->
      match Hashtbl.find_opt t.postings tg with
      | Some set ->
        set := Int_set.remove tid !set;
        if Int_set.is_empty !set then Hashtbl.remove t.postings tg
      | None -> ())
    (trigrams_of text)

let candidates ?pool t pattern =
  match query_trigrams pattern with
  | [] -> None
  | tgs ->
    let posting tg =
      touch pool t tg;
      match Hashtbl.find_opt t.postings tg with
      | Some set -> !set
      | None -> Int_set.empty
    in
    let sets = List.map posting tgs in
    (match sets with
     | [] -> None
     | first :: rest ->
       let inter = List.fold_left Int_set.inter first rest in
       Some (Int_set.elements inter))

let page_count t = Hashtbl.length t.postings

let clear t =
  Hashtbl.reset t.postings;
  Hashtbl.reset t.page_of_key;
  t.page_seq <- 0
