type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Text of string
  | Json of Json.t
  | Timestamp of float

type ty = TBool | TInt | TFloat | TText | TJson | TTimestamp

exception Cast_error of string

let ty_name = function
  | TBool -> "boolean"
  | TInt -> "bigint"
  | TFloat -> "double precision"
  | TText -> "text"
  | TJson -> "jsonb"
  | TTimestamp -> "timestamptz"

let ty_of_name s =
  match String.lowercase_ascii s with
  | "bool" | "boolean" -> TBool
  | "int" | "integer" | "bigint" | "smallint" | "int4" | "int8" | "serial"
  | "bigserial" -> TInt
  | "float" | "double" | "double precision" | "real" | "numeric" | "decimal"
  | "float8" | "float4" -> TFloat
  | "text" | "varchar" | "char" | "character varying" | "string" -> TText
  | "json" | "jsonb" -> TJson
  | "timestamp" | "timestamptz" | "date" | "timestamp with time zone"
  | "timestamp without time zone" -> TTimestamp
  | other -> invalid_arg (Printf.sprintf "unknown SQL type %S" other)

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Text _ -> Some TText
  | Json _ -> Some TJson
  | Timestamp _ -> Some TTimestamp

let type_rank = function
  | Bool _ -> 0
  | Int _ | Float _ -> 1
  | Text _ -> 2
  | Json _ -> 3
  | Timestamp _ -> 4
  | Null -> 5 (* NULLS LAST *)

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Text x, Text y -> String.compare x y
  | Json x, Json y -> Json.compare x y
  | Timestamp x, Timestamp y -> Float.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let is_null = function Null -> true | _ -> false

(* FNV-1a over a canonical byte encoding, in native ints masked to 32
   bits. Numeric types that compare equal must hash equal, so an
   integral float encodes as its int: tag 2, then the decimal digits. *)
let fnv h byte = (h lxor byte) * 0x01000193 land 0xffffffff
let fnv_string h s = String.fold_left (fun h c -> fnv h (Char.code c)) h s

(* the decimal digits of [-n], for [n <= 0] ([min_int] has no positive twin) *)
let rec fnv_digits h n =
  let h = if n <= -10 then fnv_digits h (n / 10) else h in
  fnv h (Char.code '0' - (n mod 10))

let fnv_int h i =
  let h = fnv h 2 in
  if i < 0 then fnv_digits (fnv h (Char.code '-')) i else fnv_digits h (-i)

let hash32 d =
  let h = 0x811c9dc5 in
  let h =
    match d with
    | Null -> fnv h 0
    | Bool b -> fnv (fnv h 1) (Char.code (if b then 't' else 'f'))
    | Int i -> fnv_int h i
    | Float f when Float.is_integer f && Float.abs f < 1e18 ->
      (* the encoding ([%.0f]) keeps the sign of -0.0 *)
      if f = 0.0 && Float.sign_bit f then fnv_string h "\x02-0" else fnv_int h (int_of_float f)
    | Float f -> fnv_string h (Printf.sprintf "\x03%h" f)
    | Text s -> fnv_string (fnv h 4) s
    | Json j -> fnv_string (fnv h 5) (Json.to_string j)
    | Timestamp f -> fnv_string h (Printf.sprintf "\x06%h" f)
  in
  (* murmur3's fmix32: FNV alone leaves the high bits poorly mixed for
     short inputs, which would skew hash-range sharding *)
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land 0xffffffff in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land 0xffffffff in
  Int32.of_int (h lxor (h lsr 16))

let float_display f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_display = function
  | Null -> ""
  | Bool true -> "t"
  | Bool false -> "f"
  | Int i -> string_of_int i
  | Float f -> float_display f
  | Text s -> s
  | Json j -> Json.to_string j
  | Timestamp f -> Printf.sprintf "@%s" (float_display f)

let quote_text s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let to_sql_literal = function
  | Null -> "NULL"
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      (* keep a decimal point so it re-parses as a float literal *)
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f
  | Text s -> quote_text s
  | Json j -> quote_text (Json.to_string j) ^ "::jsonb"
  | Timestamp f -> Printf.sprintf "to_timestamp(%s)" (float_display f)

let cast_error v ty =
  raise
    (Cast_error
       (Printf.sprintf "cannot cast %s to %s" (to_display v) (ty_name ty)))

let rec cast v ty =
  match v, ty with
  | Null, _ -> Null
  | Bool _, TBool | Int _, TInt | Float _, TFloat | Text _, TText
  | Json _, TJson | Timestamp _, TTimestamp -> v
  | Int i, TFloat -> Float (float_of_int i)
  | Float f, TInt -> Int (int_of_float (Float.round f))
  | Int i, TBool -> Bool (i <> 0)
  | Bool b, TInt -> Int (if b then 1 else 0)
  | Int i, TTimestamp -> Timestamp (float_of_int i)
  | Float f, TTimestamp -> Timestamp f
  | Timestamp f, TFloat -> Float f
  | Timestamp f, TInt -> Int (int_of_float f)
  | (Bool _ | Int _ | Float _ | Json _ | Timestamp _), TText ->
    Text (to_display v)
  | Text s, TInt ->
    (match int_of_string_opt (String.trim s) with
     | Some i -> Int i
     | None -> cast_error v ty)
  | Text s, TFloat ->
    (match float_of_string_opt (String.trim s) with
     | Some f -> Float f
     | None -> cast_error v ty)
  | Text s, TBool ->
    (match String.lowercase_ascii (String.trim s) with
     | "t" | "true" | "yes" | "on" | "1" -> Bool true
     | "f" | "false" | "no" | "off" | "0" -> Bool false
     | _ -> cast_error v ty)
  | Text s, TJson ->
    (try Json (Json.parse s) with Json.Parse_error m -> raise (Cast_error m))
  | Text s, TTimestamp ->
    (match float_of_string_opt (String.trim s) with
     | Some f -> Timestamp f
     | None -> cast_error v ty)
  | Json j, ty ->
    (match j with
     | Json.Num f when ty = TInt -> Int (int_of_float f)
     | Json.Num f when ty = TFloat -> Float f
     | Json.Bool b when ty = TBool -> Bool b
     | Json.Str s when ty <> TJson -> cast (Text s) ty
     | _ -> cast_error v ty)
  | (Bool _ | Int _ | Float _ | Timestamp _), _ -> cast_error v ty

let of_csv_field ty s =
  if s = "\\N" then Null
  else
    match ty with
    | TBool -> cast (Text s) TBool
    | TInt -> cast (Text s) TInt
    | TFloat -> cast (Text s) TFloat
    | TText -> Text s
    | TJson -> cast (Text s) TJson
    | TTimestamp -> cast (Text s) TTimestamp

let pp fmt v = Format.pp_print_string fmt (to_display v)
