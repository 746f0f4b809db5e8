type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> String.equal x y
  | Arr x, Arr y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Num _ | Str _ | Arr _ | Obj _), _ -> false

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Num _ -> 2
  | Str _ -> 3
  | Arr _ -> 4
  | Obj _ -> 5

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Num x, Num y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Arr x, Arr y -> compare_lists x y
  | Obj x, Obj y ->
    compare_lists
      (List.concat_map (fun (k, v) -> [ Str k; v ]) x)
      (List.concat_map (fun (k, v) -> [ Str k; v ]) y)
  | _ -> Int.compare (type_rank a) (type_rank b)

and compare_lists x y =
  match x, y with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | xh :: xt, yh :: yt ->
    let c = compare xh yh in
    if c <> 0 then c else compare_lists xt yt

(* --- Parser: hand-rolled recursive descent over a string with an index. *)

type parser_state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') -> advance st; skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st; Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> fail st "unterminated escape"
       | Some c ->
         advance st;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> fail st "bad \\u escape"
            in
            (* Encode the code point as UTF-8; surrogate pairs are not
               recombined, which is sufficient for our synthetic data. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> fail st "bad escape");
         loop ())
    | Some c -> advance st; Buffer.add_char buf c; loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c -> advance st; loop ()
    | _ -> ()
  in
  loop ();
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> advance st; Str (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_object st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin advance st; Obj [] end
  else begin
    let rec members acc =
      skip_ws st;
      expect st '"';
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' -> advance st; members ((key, value) :: acc)
      | Some '}' -> advance st; Obj (List.rev ((key, value) :: acc))
      | _ -> fail st "expected ',' or '}'"
    in
    members []
  end

and parse_array st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin advance st; Arr [] end
  else begin
    let rec elements acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' -> advance st; elements (value :: acc)
      | Some ']' -> advance st; Arr (List.rev (value :: acc))
      | _ -> fail st "expected ',' or ']'"
    in
    elements []
  end

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* --- Printing *)

(* Some byte of [w] is below the byte repeated in [n] (at most 0x80). *)
let[@inline] below w n = Int64.(logand (logand (sub w n) (lognot w)) 0x8080808080808080L) <> 0L

(* Some byte of [w] needs an escape: below 0x20, or ['"'], or ['\\']. *)
let[@inline] special w =
  below w 0x2020202020202020L
  || below (Int64.logxor w 0x2222222222222222L) 0x0101010101010101L
  || below (Int64.logxor w 0x5c5c5c5c5c5c5c5cL) 0x0101010101010101L

(* Bytes are checked eight at a time, and each run between escapes (an
   escape-free string, the common case, is one run) is added whole. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec run from i =
    if i + 8 <= n && not (special (String.get_int64_le s i)) then run from (i + 8)
    else if i = n then Buffer.add_substring buf s from (i - from)
    else
      let c = String.unsafe_get s i in
      if c <> '"' && c <> '\\' && c >= ' ' then run from (i + 1)
      else begin
        Buffer.add_substring buf s from (i - from);
        Buffer.add_string buf
          (match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | '\n' -> "\\n"
           | '\r' -> "\\r"
           | '\t' -> "\\t"
           | c -> Printf.sprintf "\\u%04x" (Char.code c));
        run (i + 1) (i + 1)
      end
  in
  run 0 0;
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Every rendering goes into one buffer, so only its result string is
   allocated; rendering never re-enters itself. *)
let scratch = Buffer.create 256

let to_string v =
  let buf = scratch in
  Buffer.clear buf;
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s -> escape_string buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; emit x) items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit x)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

(* --- Accessors: direct recursion, no closure per step *)

let rec field k = function
  | [] -> None
  | (k', v) :: rest ->
    if String.length k = String.length k' && String.equal k k' then Some v else field k rest

let get_field j k =
  match j with
  | Obj fields -> field k fields
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let get_index j i =
  match j with
  | Arr items when i >= 0 -> List.nth_opt items i
  | Arr _ | Null | Bool _ | Num _ | Str _ | Obj _ -> None

(* A wildcard step over an array collects the per-element results. *)
let rec get_path j path =
  match path with
  | [] -> Some j
  | "*" :: rest ->
    (match j with
     | Arr items -> Some (Arr (collect items rest))
     | Null | Bool _ | Num _ | Str _ | Obj _ -> None)
  | step :: rest ->
    (* only an array step is read as an index: an object step never pays
       for a failed integer parse *)
    let child =
      match j with
      | Arr _ -> Option.bind (int_of_string_opt step) (get_index j)
      | Null | Bool _ | Num _ | Str _ | Obj _ -> get_field j step
    in
    (match child with None -> None | Some c -> get_path c rest)

and collect items rest =
  match items with
  | [] -> []
  | item :: more ->
    (match get_path item rest with
     | Some v -> v :: collect more rest
     | None -> collect more rest)

let array_length = function
  | Arr items -> Some (List.length items)
  | Null | Bool _ | Num _ | Str _ | Obj _ -> None

let to_text = function
  | Null -> None
  | Str s -> Some s
  | v -> Some (to_string v)


