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

val keywords : string list

(** Is the word, in any letter case, one of {!keywords}? *)
val is_keyword : string -> bool

(** Monomorphic token equality (the parser's hot comparison). *)
val equal_token : token -> token -> bool

val tokenize : string -> token list

val token_to_string : token -> string
