type token =
  | Ident of string
  | Keyword of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Param_tok of int
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Star
  | Dot
  | Op of string
  | Eof

exception Lex_error of string

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
    "OFFSET"; "ASC"; "DESC"; "DISTINCT"; "AS"; "AND"; "OR"; "NOT"; "IS";
    "NULL"; "TRUE"; "FALSE"; "IN"; "BETWEEN"; "LIKE"; "ILIKE"; "EXISTS";
    "JOIN"; "INNER"; "LEFT"; "OUTER"; "CROSS"; "ON"; "INSERT"; "INTO";
    "VALUES"; "UPDATE"; "SET"; "DELETE"; "CREATE"; "TABLE"; "INDEX"; "DROP";
    "ALTER"; "ADD"; "COLUMN"; "PRIMARY"; "KEY"; "DEFAULT"; "USING";
    "TRUNCATE"; "COPY"; "STDIN"; "BEGIN"; "COMMIT"; "ROLLBACK"; "ABORT";
    "PREPARE"; "PREPARED"; "TRANSACTION"; "EXECUTE"; "DEALLOCATE"; "VACUUM";
    "CALL"; "IF"; "CASE";
    "WHEN"; "THEN"; "ELSE"; "END"; "CAST"; "COUNT"; "SUM"; "AVG"; "MIN";
    "MAX"; "CONFLICT"; "DO"; "NOTHING"; "COLUMNAR"; "GIN"; "BTREE"; "WITH";
    "RECURSIVE";
  ]

module Words = Hashtbl.Make (String)

(* Built once: lexing probes it for every identifier-shaped word. *)
let keyword_table = Words.of_seq (Seq.map (fun k -> (k, ())) (List.to_seq keywords))

let is_keyword s = Words.mem keyword_table (String.uppercase_ascii s)

let equal_token a b =
  match a, b with
  | Ident x, Ident y | Keyword x, Keyword y | String_lit x, String_lit y
  | Op x, Op y ->
    String.equal x y
  | Int_lit x, Int_lit y | Param_tok x, Param_tok y -> Int.equal x y
  | Float_lit x, Float_lit y -> Float.equal x y
  | _ -> a == b (* constant constructors are immediates *)

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let fail_at pos msg = raise (Lex_error (Printf.sprintf "%s at offset %d" msg pos))

(* The one definition of a literal, shared by [tokenize] and [skeleton]:
   [scan_string] reads the string whose opening quote is at [!pos],
   undoing [''] escapes, and [scan_number] the number starting there
   ([1], [.5], [2.5e-3]). Each leaves [pos] just past the literal. *)
let scan_string src pos =
  let n = String.length src in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then fail_at n "unterminated string"
    else if src.[i] <> '\'' then (Buffer.add_char buf src.[i]; go (i + 1))
    else if i + 1 < n && src.[i + 1] = '\'' then (Buffer.add_char buf '\''; go (i + 2))
    else pos := i + 1
  in
  go (!pos + 1);
  String_lit (Buffer.contents buf)

(* An integer past [max_int] or an exponent with no digits is a lexical
   error at the literal's offset, like any other. *)
let scan_number src pos =
  let n = String.length src and start = !pos in
  let rec go i ~dot ~exp =
    if i >= n then i
    else
      match src.[i] with
      | '0' .. '9' -> go (i + 1) ~dot ~exp
      | '.' when not (dot || exp) -> go (i + 1) ~dot:true ~exp
      | ('e' | 'E') when not exp ->
        let i = i + 1 in
        let i = if i < n && (src.[i] = '+' || src.[i] = '-') then i + 1 else i in
        go i ~dot ~exp:true
      | _ -> i
  in
  pos := go start ~dot:false ~exp:false;
  let text = String.sub src start (!pos - start) in
  if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text then
    match float_of_string text with
    | f -> Float_lit f
    | exception Failure _ -> fail_at start "malformed number"
  else
    match int_of_string text with
    | i -> Int_lit i
    | exception Failure _ -> fail_at start "integer out of range"

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let out = ref [] in
  let emit t = out := t :: !out in
  (* the character [k] past the cursor; NUL past the end *)
  let at k = if !pos + k < n then src.[!pos + k] else '\000' in
  let fail msg = fail_at !pos msg in
  while !pos < n do
    let c = src.[!pos] in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '-' when at 1 = '-' ->
      (* line comment *)
      while !pos < n && src.[!pos] <> '\n' do incr pos done
    | '(' -> emit Lparen; incr pos
    | ')' -> emit Rparen; incr pos
    | ',' -> emit Comma; incr pos
    | ';' -> emit Semicolon; incr pos
    | '*' -> emit Star; incr pos
    | '.' when not (is_digit (at 1)) ->
      emit Dot; incr pos
    | '\'' -> emit (scan_string src pos)
    | '"' ->
      incr pos;
      let start = !pos in
      while !pos < n && src.[!pos] <> '"' do incr pos done;
      if !pos >= n then fail "unterminated quoted identifier";
      emit (Ident (String.sub src start (!pos - start)));
      incr pos
    | '$' ->
      incr pos;
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do incr pos done;
      if !pos = start then fail "bad parameter";
      emit (Param_tok (int_of_string (String.sub src start (!pos - start))))
    | c when is_digit c || c = '.' -> emit (scan_number src pos)
    | c when is_ident_start c ->
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do incr pos done;
      let upper = String.uppercase_ascii (String.sub src start (!pos - start)) in
      if Words.mem keyword_table upper then emit (Keyword upper)
      else emit (Ident (String.lowercase_ascii upper))
    | _ ->
      (* operators, longest match first *)
      let op =
        match c, at 1 with
        | '-', '>' -> if at 2 = '>' then "->>" else "->"
        | ':', ':' -> "::"
        | '<', '=' -> "<="
        | '>', '=' -> ">="
        | ('<', '>' | '!', '=') -> "<>"
        | '|', '|' -> "||"
        | ('=' | '<' | '>' | '+' | '-' | '/' | '%'), _ -> String.make 1 c
        | _ -> fail (Printf.sprintf "unexpected character '%c'" c)
      in
      pos := !pos + String.length op;
      emit (Op op)
  done;
  List.rev (Eof :: !out)

(* Skeleton markers, one per literal kind: [mark] writes the literal's
   marker and returns its value. The scan refuses bytes up to the last
   marker anywhere outside a string, so a skeleton reads back
   unambiguously. NULL, TRUE and FALSE share one marker. *)
let mark buf = function
  | Int_lit v -> Buffer.add_char buf '\001'; Datum.Int v
  | Float_lit f -> Buffer.add_char buf '\002'; Datum.Float f
  | String_lit s -> Buffer.add_char buf '\003'; Datum.Text s
  | Keyword "NULL" -> Buffer.add_char buf '\004'; Datum.Null
  | Keyword ("TRUE" | "FALSE" as b) -> Buffer.add_char buf '\004'; Datum.Bool (b = "TRUE")
  | _ -> invalid_arg "Lexer.mark: not a literal"

let is_mark c = c <= '\004'

(* Does [src.[i..j)] spell the upper-case word [w], in any case? *)
let rec spells_from src i w k =
  k = String.length w || (Char.uppercase_ascii src.[i + k] = w.[k] && spells_from src i w (k + 1))

let spells src i j w = String.length w = j - i && spells_from src i w 0

(* NULL, TRUE and FALSE are constants, as [Ast.lift_consts] reads them *)
let const_word src i j =
  if spells src i j "NULL" then Some (Keyword "NULL")
  else if spells src i j "TRUE" then Some (Keyword "TRUE")
  else if spells src i j "FALSE" then Some (Keyword "FALSE")
  else None

let skeleton buf src =
  let n = String.length src in
  Buffer.clear buf;
  let lits = ref [] in
  (* the last word was IS or NOT: a NULL after it is the parser's
     keyword ([IS NOT NULL], a column's [NOT NULL]), not a constant *)
  let after_not = ref false in
  (* [seg] starts the text not yet copied: a literal flushes it *)
  let rec go seg i =
    if i >= n then (Buffer.add_substring buf src seg (i - seg); true)
    else
      match src.[i] with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> ident seg i (word (i + 1))
      | '"' -> quoted seg (i + 1)
      | '\'' -> literal seg i scan_string
      | '0' .. '9' -> literal seg i scan_number
      | '.' when i + 1 < n && is_digit src.[i + 1] -> literal seg i scan_number
      | '-' when i + 1 < n && src.[i + 1] = '-' -> false
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ',' | ';' | '*' | '.' | '=' | '<'
      | '>' | '!' | '|' | ':' | '+' | '-' | '/' | '%' ->
        go seg (i + 1)
      | _ -> false
  (* identifier words, digits and all, are copied whole, but for the
     constant ones *)
  and word j = if j < n && is_ident_char src.[j] then word (j + 1) else j
  and ident seg i j =
    let const = if !after_not then None else const_word src i j in
    after_not := spells src i j "IS" || spells src i j "NOT";
    match const with
    | Some kw -> literal seg i (fun _ pos -> pos := j; kw)
    | None -> go seg j
  and quoted seg j =
    if j >= n || is_mark src.[j] then false
    else if src.[j] = '"' then go seg (j + 1)
    else quoted seg (j + 1)
  and literal seg i scan =
    let pos = ref i in
    let tok = scan src pos in
    Buffer.add_substring buf src seg (i - seg);
    lits := mark buf tok :: !lits;
    go !pos !pos
  in
  match go 0 0 with
  | true -> Some (Buffer.contents buf, List.rev !lits)
  | false | (exception Lex_error _) -> None

let placeholders skel =
  let buf = Buffer.create (String.length skel + 16) in
  let k = ref 0 in
  String.iter
    (fun c ->
      if not (is_mark c) then Buffer.add_char buf c
      else (incr k; Printf.bprintf buf "$%d" !k))
    skel;
  Buffer.contents buf

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Keyword s -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | String_lit s -> Printf.sprintf "'%s'" s
  | Param_tok i -> Printf.sprintf "$%d" i
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Semicolon -> ";"
  | Star -> "*"
  | Dot -> "."
  | Op s -> s
  | Eof -> "<eof>"
