(** A literal-normalized statement cache in front of {!Parser}.

    A text's skeleton is the text with each literal replaced by a kind
    marker ({!Lexer.skeleton}). The cache maps a skeleton to its
    template, parsed once with [$1..$n] for the literals, and serves a
    text by binding the text's literals into it: no lexer, no parser. A
    skeleton is admitted at its second sighting, and only if binding
    the literals gives exactly the text's own parse; otherwise it is
    marked uncacheable ([SELECT -5], [PREPARE TRANSACTION 'gid']).
    Templates depend on the grammar alone, so nothing invalidates
    them. At most {!capacity} skeletons are held, the oldest evicted
    first; texts over 4 KB are always parsed. *)

type t

val create : unit -> t

val capacity : int

(** {!Parser.parse_statement}, served from the cache when it can be:
    the same statement, or the same exception. *)
val parse : t -> string -> Ast.statement

(** Skeletons held: seen once, templated or uncacheable. *)
val size : t -> int

type stats = {
  hits : int;  (** texts bound from a template *)
  misses : int;  (** texts parsed *)
  uncacheable : int;  (** skeletons refused at admission *)
}

val stats : t -> stats
