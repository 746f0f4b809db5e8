(** A literal-normalized statement cache in front of {!Parser}.

    A text's skeleton is the text with each literal replaced by a kind
    marker ({!Lexer.skeleton}). The cache maps a skeleton to its
    template, parsed once with [$1..$n] for the literals, and serves a
    text as that template plus the text's literals: no lexer, no parser,
    no binding. A skeleton is admitted at its second sighting, and only
    if its template is exactly the text's own parse with its literals
    lifted ({!Ast.lift_consts}), and binding the literals into it gives
    back that parse; otherwise it is marked uncacheable ([SELECT -5],
    [PREPARE TRANSACTION 'gid'], a [NULL] or [TRUE] the lexer reads as a
    word). The template is then the text's plan-cache shape, and its
    deparse, made once at admission, that shape's key. Templates depend
    on the grammar alone, so nothing invalidates them. At most
    {!capacity} skeletons are held, the oldest evicted first; texts over
    4 KB are always parsed. *)

type t

val create : unit -> t

val capacity : int

(** A text served from its skeleton's template: [values], the text's
    literals in text order, bind the template's [$1..$n], and [key] is
    the template's deparse. *)
type hit = { template : Ast.statement; key : string; values : Datum.t list }

type found =
  | Parsed of Ast.statement  (** the text's own parse *)
  | Hit of hit  (** binding [values] into [template] gives that parse *)

(** The text as {!Parser.parse_statement} reads it, from the cache when
    it can be; the parser's exception otherwise. *)
val lookup : t -> string -> found

(** Skeletons held: seen once, templated or uncacheable. *)
val size : t -> int

type stats = {
  hits : int;  (** texts served from a template *)
  misses : int;  (** texts parsed *)
  uncacheable : int;  (** skeletons refused at admission *)
}

val stats : t -> stats
