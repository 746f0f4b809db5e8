(** A literal-normalized statement cache in front of {!Parser}.

    A text's skeleton is the text with each literal replaced by a kind
    marker ({!Lexer.skeleton}). The cache maps a skeleton to its
    template, parsed once with [$1..$n] for the literals, and serves a
    text as that template's payload plus the text's literals: no lexer,
    no parser, no binding. A skeleton is admitted at its second
    sighting, and only if its template is exactly the text's own parse
    with its literals lifted ({!Ast.lift_consts}), and binding the
    literals into it gives back that parse; otherwise it is marked
    uncacheable ([SELECT -5], [PREPARE TRANSACTION 'gid']). The template
    is then the text's plan-cache shape, and its deparse, made once at
    admission, that shape's key.

    A hit serves the payload its owner built from the template and its
    key at admission: the engine's is a prepared statement with a kept
    plan. Templates depend on the grammar alone, so nothing invalidates
    them. At most {!capacity} skeletons are held, the oldest evicted
    first; texts over 4 KB are always parsed. *)

type 'a t

(** [create admit]: [admit template key] is the payload a hit serves. *)
val create : (Ast.statement -> string -> 'a) -> 'a t

val capacity : int

type 'a found =
  | Parsed of Ast.statement  (** the text's own parse *)
  | Hit of 'a * Datum.t list
      (** the template's payload and the text's literals in text order:
          binding them into the template's [$1..$n] gives that parse *)

(** The text as {!Parser.parse_statement} reads it, from the cache when
    it can be; the parser's exception otherwise. *)
val lookup : 'a t -> string -> 'a found

(** Skeletons held: seen once, templated or uncacheable. *)
val size : 'a t -> int

type stats = {
  hits : int;  (** texts served from a template *)
  misses : int;  (** texts parsed *)
  uncacheable : int;  (** skeletons refused at admission *)
}

val stats : 'a t -> stats
