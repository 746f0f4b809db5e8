(* Unit and property tests for the datum and JSON substrate. *)

let check_datum = Alcotest.testable Datum.pp Datum.equal

let test_compare_numeric () =
  Alcotest.(check int) "int vs int" (-1) (compare (Datum.compare (Int 1) (Int 2)) 0);
  Alcotest.(check bool) "int vs float eq" true (Datum.equal (Int 3) (Float 3.0));
  Alcotest.(check bool) "float vs int lt" true (Datum.compare (Float 2.5) (Int 3) < 0)

let test_null_sorts_last () =
  let sorted = List.sort Datum.compare [ Datum.Null; Int 1; Text "a" ] in
  match List.rev sorted with
  | Datum.Null :: _ -> ()
  | _ -> Alcotest.fail "NULL should sort last"

let test_hash_consistency () =
  (* equal datums must hash equal, notably Int vs integral Float *)
  Alcotest.(check int32) "int/float" (Datum.hash32 (Int 42))
    (Datum.hash32 (Float 42.0));
  Alcotest.(check bool) "different values differ" true
    (Datum.hash32 (Int 1) <> Datum.hash32 (Int 2))

let test_hash_range () =
  (* hash32 must span negative and positive int32 values over a sample *)
  let neg = ref false and pos = ref false in
  for i = 0 to 999 do
    let h = Datum.hash32 (Int i) in
    if Int32.compare h 0l < 0 then neg := true else pos := true
  done;
  Alcotest.(check bool) "covers both signs" true (!neg && !pos)

let test_sql_literal_roundtrip_text () =
  Alcotest.(check string) "quotes escaped" "'it''s'"
    (Datum.to_sql_literal (Text "it's"))

let test_cast_text_int () =
  Alcotest.(check check_datum) "parses" (Datum.Int 42)
    (Datum.cast (Text " 42 ") TInt);
  Alcotest.check_raises "garbage" (Datum.Cast_error "cannot cast xyz to bigint")
    (fun () -> ignore (Datum.cast (Text "xyz") TInt))

let test_cast_null () =
  List.iter
    (fun ty -> Alcotest.(check check_datum) "null" Datum.Null (Datum.cast Null ty))
    [ Datum.TBool; TInt; TFloat; TText; TJson; TTimestamp ]

let test_csv_null_marker () =
  Alcotest.(check check_datum) "backslash-N" Datum.Null
    (Datum.of_csv_field TInt "\\N")

let test_json_parse_basic () =
  let j = Json.parse {|{"a": 1, "b": [true, null, "x"], "c": {"d": 2.5}}|} in
  Alcotest.(check bool) "field a" true
    (Json.equal (Option.get (Json.get_field j "a")) (Json.Num 1.0));
  Alcotest.(check bool) "nested" true
    (Json.equal (Option.get (Json.get_path j [ "c"; "d" ])) (Json.Num 2.5));
  Alcotest.(check (option int)) "array length" (Some 3)
    (Json.array_length (Option.get (Json.get_field j "b")))

let test_json_roundtrip () =
  let src = {|{"k":"v","n":3,"arr":[1,2,{"x":null}],"t":true}|} in
  let j = Json.parse src in
  Alcotest.(check bool) "parse . to_string . parse = parse" true
    (Json.equal j (Json.parse (Json.to_string j)))

let test_json_escapes () =
  let j = Json.parse {|{"s": "line\nbreak \"quoted\" \\ A"}|} in
  match Json.get_field j "s" with
  | Some (Json.Str s) ->
    Alcotest.(check string) "unescaped" "line\nbreak \"quoted\" \\ A" s
  | _ -> Alcotest.fail "expected string"

let test_json_wildcard_path () =
  let j =
    Json.parse
      {|{"payload": {"commits": [{"message": "fix"}, {"message": "feat"}]}}|}
  in
  match Json.get_path j [ "payload"; "commits"; "*"; "message" ] with
  | Some (Json.Arr [ Json.Str "fix"; Json.Str "feat" ]) -> ()
  | _ -> Alcotest.fail "wildcard path failed"

(* A step reads as an array index only on an array: an object keeps
   numeric-looking keys as names, an array misses on a non-numeric step. *)
let test_json_numeric_steps () =
  let j =
    Json.parse {|{"0": "zero", "-1": "neg", "a": [10, 20, {"1": "one"}]}|}
  in
  let check name expect path =
    Alcotest.(check (option string)) name expect
      (Option.map Json.to_string (Json.get_path j path))
  in
  check "numeric key on object" (Some {|"zero"|}) [ "0" ];
  check "negative key on object" (Some {|"neg"|}) [ "-1" ];
  check "absent numeric key" None [ "1" ];
  check "index on array" (Some "20") [ "a"; "1" ];
  check "index past end" None [ "a"; "3" ];
  check "negative index" None [ "a"; "-1" ];
  check "name on array" None [ "a"; "x" ];
  check "mixed step on array" None [ "a"; "1x" ];
  check "numeric key under index" (Some {|"one"|}) [ "a"; "2"; "1" ];
  check "step into scalar" None [ "a"; "0"; "0" ]

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "should reject %S" bad))
    [ "{"; "[1,"; {|{"a" 1}|}; "tru"; ""; "1 2" ]

(* --- property tests --- *)

let datum_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Datum.Null;
      map (fun b -> Datum.Bool b) bool;
      map (fun i -> Datum.Int i) (int_range (-1000000) 1000000);
      map (fun f -> Datum.Float f) (float_range (-1e6) 1e6);
      map (fun s -> Datum.Text s) (string_size ~gen:printable (int_range 0 20));
    ]

let prop_compare_total =
  QCheck2.Test.make ~name:"datum compare is antisymmetric" ~count:500
    QCheck2.Gen.(pair datum_gen datum_gen)
    (fun (a, b) ->
      let c1 = Datum.compare a b and c2 = Datum.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"json string escaping is reversible" ~count:500
    QCheck2.Gen.(string_size ~gen:(oneof [ printable; char_range '\000' '\031'; oneofl [ '"'; '\\' ] ]) (int_range 0 30))
    (fun s ->
      let v = Json.Obj [ (s, Json.Arr [ Json.Str s ]) ] in
      Json.equal v (Json.parse (Json.to_string v)))

(* [Json.to_string] and [Json.get_path] as they were before rendering
   went into one buffer, kept as the reference the new render must
   match byte for byte. *)
let reference_escape buf s =
  Buffer.add_char buf '"';
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !from (i - !from);
      from := i + 1;
      Buffer.add_string buf
        (match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | '\r' -> "\\r"
         | '\t' -> "\\t"
         | c -> Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !from (String.length s - !from);
  Buffer.add_char buf '"'

let reference_to_string v =
  let buf = Buffer.create 64 in
  let rec emit = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool true -> Buffer.add_string buf "true"
    | Json.Bool false -> Buffer.add_string buf "false"
    | Json.Num f ->
      Buffer.add_string buf
        (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
         else Printf.sprintf "%g" f)
    | Json.Str s -> reference_escape buf s
    | Json.Arr items ->
      Buffer.add_char buf '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; emit x) items;
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          reference_escape buf k;
          Buffer.add_char buf ':';
          emit x)
        fields;
      Buffer.add_char buf '}'
  in
  emit v;
  Buffer.contents buf

let rec reference_get_path j path =
  match path, j with
  | [], _ -> Some j
  | "*" :: rest, Json.Arr items ->
    Some (Json.Arr (List.filter_map (fun item -> reference_get_path item rest) items))
  | "*" :: _, _ -> None
  | step :: rest, Json.Arr items ->
    (match int_of_string_opt step with
     | Some i when i >= 0 -> Option.bind (List.nth_opt items i) (fun c -> reference_get_path c rest)
     | _ -> None)
  | step :: rest, Json.Obj fields ->
    Option.bind (List.assoc_opt step fields) (fun c -> reference_get_path c rest)
  | _ :: _, _ -> None

(* Strings with control characters, quotes, backslashes and bytes from
   0x7f up, long enough to put escapes at every place in an 8-byte word;
   keys from a small set, so that paths find them. *)
let json_gen =
  let open QCheck2.Gen in
  let str =
    string_size
      ~gen:
        (frequency
           [ (6, printable); (1, char_range '\000' '\031');
             (1, oneofl [ '"'; '\\'; '\x7f'; '\xc3'; '\xa9'; '\xff' ]) ])
      (int_range 0 40)
  in
  let num =
    oneof
      [ map float_of_int (int_range (-1000) 1000); float_range (-1e6) 1e6;
        oneofl [ 0.; -0.; 0.5; 1e15; -1e15; 1e16; 1e300; 1.5e-7; infinity; nan ] ]
  in
  let key = oneofl [ "a"; "b"; "0"; "1"; "message" ] in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Json.Null; map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num; map (fun s -> Json.Str s) str ]
         in
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 3))));
               (1, map (fun l -> Json.Obj l) (list_size (int_range 0 4) (pair (oneof [ key; str ]) (self (n / 3))))) ])

let prop_render_matches_reference =
  QCheck2.Test.make ~name:"json render is byte-identical to the reference" ~count:2000
    ~print:reference_to_string json_gen (fun v -> String.equal (Json.to_string v) (reference_to_string v))

let prop_path_matches_reference =
  let open QCheck2.Gen in
  QCheck2.Test.make ~name:"get_path renders as the reference path's value" ~count:3000
    ~print:(fun (v, path) -> reference_to_string v ^ " @ " ^ String.concat "." path)
    (pair json_gen (list_size (int_range 0 4) (oneofl [ "a"; "b"; "0"; "1"; "*"; "message" ])))
    (fun (v, path) ->
      Option.equal String.equal
        (Option.map Json.to_string (Json.get_path v path))
        (Option.map reference_to_string (reference_get_path v path)))

let prop_literal_roundtrip =
  QCheck2.Test.make ~name:"text literal quoting is reversible" ~count:500
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 30))
    (fun s ->
      let lit = Datum.to_sql_literal (Text s) in
      let body = String.sub lit 1 (String.length lit - 2) in
      let buf = Buffer.create (String.length body) in
      let i = ref 0 in
      while !i < String.length body do
        if
          body.[!i] = '\''
          && !i + 1 < String.length body
          && body.[!i + 1] = '\''
        then begin
          Buffer.add_char buf '\'';
          i := !i + 2
        end
        else begin
          Buffer.add_char buf body.[!i];
          incr i
        end
      done;
      String.equal (Buffer.contents buf) s)

let prop_hash_equal_consistent =
  QCheck2.Test.make ~name:"equal datums hash equal" ~count:500
    QCheck2.Gen.(pair datum_gen datum_gen)
    (fun (a, b) ->
      if Datum.equal a b then Datum.hash32 a = Datum.hash32 b else true)

(* The byte-string definition of [Datum.hash32] that placements were
   made with: any other must agree with it bit for bit, or every row
   moves shard. *)
let reference_hash32 (d : Datum.t) =
  let canonical_bytes = function
    | Datum.Null -> "\x00"
    | Bool false -> "\x01f"
    | Bool true -> "\x01t"
    | Int i -> Printf.sprintf "\x02%d" i
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e18 then Printf.sprintf "\x02%.0f" f
      else Printf.sprintf "\x03%h" f
    | Text s -> "\x04" ^ s
    | Json j -> "\x05" ^ Json.to_string j
    | Timestamp f -> Printf.sprintf "\x06%h" f
  in
  let fmix32 h =
    let h = Int32.logxor h (Int32.shift_right_logical h 16) in
    let h = Int32.mul h 0x85ebca6bl in
    let h = Int32.logxor h (Int32.shift_right_logical h 13) in
    let h = Int32.mul h 0xc2b2ae35l in
    Int32.logxor h (Int32.shift_right_logical h 16)
  in
  let h = ref 0x811c9dc5l in
  String.iter
    (fun c -> h := Int32.mul (Int32.logxor !h (Int32.of_int (Char.code c))) 0x01000193l)
    (canonical_bytes d);
  fmix32 !h

(* Every kind, and the corners of each encoding: the ends of the int
   range, -0.0, integral floats at the 1e18 cut, infinities and NaN,
   text with bytes of 0x80 and above, and JSON. *)
let any_datum_gen =
  let open QCheck2.Gen in
  let float =
    oneof
      [
        float;
        map float_of_int int;
        oneofl
          [ 0.0; -0.0; 1e18; -1e18; 999999999999999872.0; 1e17; -5.0; 0.5; infinity;
            neg_infinity; nan; Float.min_float; Float.max_float ];
      ]
  in
  oneof
    [
      return Datum.Null;
      map (fun b -> Datum.Bool b) bool;
      map (fun i -> Datum.Int i)
        (oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int; 0; -1 ] ]);
      map (fun f -> Datum.Float f) float;
      map (fun s -> Datum.Text s) (string_size ~gen:char (int_range 0 24));
      map (fun f -> Datum.Timestamp f) float;
      map (fun s -> Datum.Json (Json.Obj [ ("k", Json.Str s); ("n", Json.Num 1.5) ]))
        (string_size ~gen:char (int_range 0 8));
    ]

let prop_hash_matches_reference =
  QCheck2.Test.make ~name:"hash32 = byte-string reference" ~count:2000
    ~print:Datum.to_display any_datum_gen
    (fun d -> Datum.hash32 d = reference_hash32 d)

let () =
  Alcotest.run "datum"
    [
      ( "datum",
        [
          Alcotest.test_case "compare numeric" `Quick test_compare_numeric;
          Alcotest.test_case "null sorts last" `Quick test_null_sorts_last;
          Alcotest.test_case "hash consistency" `Quick test_hash_consistency;
          Alcotest.test_case "hash covers int32 range" `Quick test_hash_range;
          Alcotest.test_case "sql literal escaping" `Quick
            test_sql_literal_roundtrip_text;
          Alcotest.test_case "cast text to int" `Quick test_cast_text_int;
          Alcotest.test_case "cast null" `Quick test_cast_null;
          Alcotest.test_case "csv null marker" `Quick test_csv_null_marker;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse basic" `Quick test_json_parse_basic;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "wildcard path" `Quick test_json_wildcard_path;
          Alcotest.test_case "numeric steps" `Quick test_json_numeric_steps;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compare_total;
            prop_literal_roundtrip;
            prop_json_string_roundtrip;
            prop_render_matches_reference;
            prop_path_matches_reference;
            prop_hash_equal_consistent;
            prop_hash_matches_reference;
          ]
      );
    ]
