type 'a found = Parsed of Ast.statement | Hit of 'a * Datum.t list
type 'a slot = Seen | Template of 'a | Uncacheable

module Skeletons = Hashtbl.Make (String)

let capacity = 1024

(* Longer texts (bulk INSERTs) are parsed: they rarely repeat, and each
   would hold a skeleton and a template of its size. *)
let max_text = 4096

type stats = { hits : int; misses : int; uncacheable : int }

type 'a t = {
  slots : 'a slot Skeletons.t;
  order : string Queue.t;  (** skeletons, oldest first *)
  buf : Buffer.t;  (** the skeleton scan's scratch *)
  admit : Ast.statement -> string -> 'a;  (** the owner's payload of a template *)
  mutable hits : int;
  mutable misses : int;
  mutable uncacheable : int;
}

let create admit =
  { slots = Skeletons.create 64; order = Queue.create (); buf = Buffer.create 256; admit;
    hits = 0; misses = 0; uncacheable = 0 }

let size t = Skeletons.length t.slots
let stats t : stats = { hits = t.hits; misses = t.misses; uncacheable = t.uncacheable }

type 'a probe = Found of 'a * Datum.t list | Missed of (string * Datum.t list) option

(* The hit path, a root of lint rule L15: it neither parses nor binds. *)
let hit t text =
  match if String.length text > max_text then None else Lexer.skeleton t.buf text with
  | None -> Missed None
  | Some ((skel, values) as scan) ->
    (match Skeletons.find_opt t.slots skel with
     | Some (Template payload) ->
       t.hits <- t.hits + 1;
       Found (payload, values)
     | _ -> Missed (Some scan))

let add t skel =
  if size t >= capacity then Skeletons.remove t.slots (Queue.pop t.order);
  Skeletons.replace t.slots skel Seen;
  Queue.push skel t.order

(* The template stands for its skeleton only if it is the text's own
   parse with its literals lifted, and binding these literals into it
   gives back that parse. *)
let admit t skel lits stmt =
  let slot =
    match Parser.parse_statement (Lexer.placeholders skel) with
    | tpl when tpl = fst (Ast.lift_consts stmt) && Ast.bind_params lits tpl = stmt ->
      Template (t.admit tpl (Deparse.statement tpl))
    | _ | (exception Parser.Parse_error _) ->
      t.uncacheable <- t.uncacheable + 1;
      Uncacheable
  in
  Skeletons.replace t.slots skel slot

let lookup t text =
  match hit t text with
  | Found (payload, values) -> Hit (payload, values)
  | Missed scan ->
    t.misses <- t.misses + 1;
    let stmt = Parser.parse_statement text in
    Option.iter
      (fun (skel, lits) ->
        match Skeletons.find_opt t.slots skel with
        | None -> add t skel
        | Some Seen -> admit t skel lits stmt
        | Some (Template _ | Uncacheable) -> ())
      scan;
    Parsed stmt
