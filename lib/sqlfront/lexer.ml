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

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let out = ref [] in
  let emit t = out := t :: !out in
  (* the character [k] past the cursor; NUL past the end *)
  let at k = if !pos + k < n then src.[!pos + k] else '\000' in
  let fail msg = raise (Lex_error (Printf.sprintf "%s at offset %d" msg !pos)) in
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
    | '\'' ->
      (* string literal with '' escaping *)
      incr pos;
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else if src.[!pos] = '\'' then
          if at 1 = '\'' then begin
            Buffer.add_char buf '\'';
            pos := !pos + 2;
            go ()
          end
          else incr pos
        else begin
          Buffer.add_char buf src.[!pos];
          incr pos;
          go ()
        end
      in
      go ();
      emit (String_lit (Buffer.contents buf))
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
    | c when is_digit c || (c = '.' && is_digit (at 1)) ->
      let start = !pos in
      let seen_dot = ref false in
      let seen_exp = ref false in
      let rec go () =
        if !pos < n then
          match src.[!pos] with
          | '0' .. '9' -> incr pos; go ()
          | '.' when not !seen_dot && not !seen_exp ->
            seen_dot := true; incr pos; go ()
          | 'e' | 'E' when not !seen_exp ->
            seen_exp := true;
            incr pos;
            (match at 0 with '+' | '-' -> incr pos | _ -> ());
            go ()
          | _ -> ()
      in
      go ();
      let text = String.sub src start (!pos - start) in
      if !seen_dot || !seen_exp then emit (Float_lit (float_of_string text))
      else emit (Int_lit (int_of_string text))
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
