(** SQL lexer. Produces the token stream consumed by {!Parser}. *)

type token =
  | Ident of string  (** lowercased unless double-quoted *)
  | Keyword of string  (** uppercased; only words in {!keywords} *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Param_tok of int  (** [$1] *)
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Star
  | Dot
  | Op of string  (** [=], [<>], [<=], [->], [->>], [::], [||], ... *)
  | Eof

exception Lex_error of string
(** The message ends "at offset N": an unterminated string, a bad
    character, an integer past [max_int], a malformed number. *)

val keywords : string list

(** Is the word, in any letter case, one of {!keywords}? *)
val is_keyword : string -> bool

(** Monomorphic token equality (the parser's hot comparison). *)
val equal_token : token -> token -> bool

val tokenize : string -> token list

(** [skeleton buf src] is [src] with each literal replaced by a byte
    that marks its kind (integer, float, string, or one of the words
    NULL, TRUE and FALSE), and the literals' values in text order, as
    {!Ast.lift_consts} lifts them from the parse. Literals are read by
    the same scanners as {!tokenize}'s. Other identifier words, digits
    included, double-quoted identifiers and a NULL right after IS or
    NOT ([IS NOT NULL], a column's [NOT NULL]) are copied whole. [None]
    for a [$k], a [--] comment, a lexical error or anything else the
    scan does not recognise. [buf] is scratch space, reused across
    calls. *)
val skeleton : Buffer.t -> string -> (string * Datum.t list) option

(** A skeleton with its markers numbered [$1..$n] left to right. *)
val placeholders : string -> string

val token_to_string : token -> string
