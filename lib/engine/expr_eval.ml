open Sqlfront

exception Eval_error of string

type rcol = { rq : string option; rname : string }

type schema = rcol list

type env = {
  rng : Random.State.t;
  now : float;
  subquery : Ast.select -> Datum.t array list;
}

type 'x runtime = {
  x_params : 'x -> Datum.t array;
  x_now : 'x -> float;
  x_rng : 'x -> Random.State.t;
  x_subquery : Ast.select -> 'x -> Datum.t array list;
}

let err fmt = Printf.ksprintf (fun m -> raise (Eval_error m)) fmt

(* One pass over [cols] from position [i]; [found] is the position of an
   earlier match, or -1. *)
let rec resolve_from q name i found = function
  | [] ->
    if found >= 0 then found
    else
      err "column %s%s does not exist"
        (match q with Some q -> q ^ "." | None -> "")
        name
  | (c : rcol) :: cols ->
    let hit =
      String.equal c.rname name
      &&
      match q, c.rq with
      | None, _ -> true
      | Some q, Some cq -> String.equal cq q
      | Some _, None -> false
    in
    if not hit then resolve_from q name (i + 1) found cols
    else if found >= 0 then err "column reference %s is ambiguous" name
    else resolve_from q name (i + 1) i cols

let resolve schema q name = resolve_from q name 0 (-1) schema

(* --- numeric helpers --- *)

let as_float = function
  | Datum.Int i -> float_of_int i
  | Datum.Float f -> f
  | Datum.Timestamp f -> f
  | d -> err "expected a number, got %s" (Datum.to_display d)

let arith op a b =
  match a, b with
  | Datum.Null, _ | _, Datum.Null -> Datum.Null
  | _ ->
    (match op, a, b with
     | Ast.Add, Datum.Int x, Datum.Int y -> Datum.Int (x + y)
     | Ast.Sub, Datum.Int x, Datum.Int y -> Datum.Int (x - y)
     | Ast.Mul, Datum.Int x, Datum.Int y -> Datum.Int (x * y)
     | Ast.Div, Datum.Int x, Datum.Int y ->
       if y = 0 then err "division by zero" else Datum.Int (x / y)
     | Ast.Mod, Datum.Int x, Datum.Int y ->
       if y = 0 then err "division by zero" else Datum.Int (x mod y)
     | Ast.Concat, _, _ ->
       Datum.Text (Datum.to_display a ^ Datum.to_display b)
     | Ast.Add, _, _ -> Datum.Float (as_float a +. as_float b)
     | Ast.Sub, _, _ -> Datum.Float (as_float a -. as_float b)
     | Ast.Mul, _, _ -> Datum.Float (as_float a *. as_float b)
     | Ast.Div, _, _ ->
       let d = as_float b in
       if d = 0.0 then err "division by zero" else Datum.Float (as_float a /. d)
     | Ast.Mod, _, _ -> Datum.Float (Float.rem (as_float a) (as_float b)))

let compare_datums op a b =
  match a, b with
  | Datum.Null, _ | _, Datum.Null -> Datum.Null
  | _ ->
    let c = Datum.compare a b in
    let r =
      match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
    in
    Datum.Bool r

(* Kleene three-valued logic *)
let sql_and a b =
  match a, b with
  | Datum.Bool false, _ | _, Datum.Bool false -> Datum.Bool false
  | Datum.Bool true, Datum.Bool true -> Datum.Bool true
  | _ -> Datum.Null

let sql_or a b =
  match a, b with
  | Datum.Bool true, _ | _, Datum.Bool true -> Datum.Bool true
  | Datum.Bool false, Datum.Bool false -> Datum.Bool false
  | _ -> Datum.Null

let sql_not = function
  | Datum.Bool b -> Datum.Bool (not b)
  | Datum.Null -> Datum.Null
  | d -> err "NOT applied to %s" (Datum.to_display d)

let truthy = function Datum.Bool true -> true | _ -> false

(* --- LIKE --- *)

(* The pattern is split on [%] and folded for ILIKE once, when the
   matcher is built. Each segment has a fixed length ([_] is any byte):
   the first is anchored at the start, the last at the end, and each
   middle one matches at its leftmost place, found by a scan for its
   first byte. The match ends as soon as only [%] is left. *)
let like_matcher ~ci pattern =
  let p = if ci then String.lowercase_ascii pattern else pattern in
  let segs = Array.of_list (String.split_on_char '%' p) in
  let n = Array.length segs in
  let first = segs.(0) and last = segs.(n - 1) in
  let[@inline] fold c = if ci then Char.lowercase_ascii c else c in
  (* [seg] from its byte [j] at [s.[i + j]] *)
  let rec at s i seg j =
    j = String.length seg
    || (let c = String.unsafe_get seg j in
        (c = '_' || c = fold (String.unsafe_get s (i + j))) && at s i seg (j + 1))
  in
  let rec find s seg c0 i upto =
    if i > upto then -1
    else if (c0 = '_' || c0 = fold (String.unsafe_get s i)) && at s i seg 1 then i
    else find s seg c0 (i + 1) upto
  in
  fun s ->
    let ns = String.length s in
    if n = 1 then ns = String.length first && at s 0 first 0
    else
      let tail = ns - String.length last (* where [last] starts *) in
      let rec middle k pos =
        if k = n - 1 then at s tail last 0
        else
          let seg = segs.(k) in
          let len = String.length seg in
          if len = 0 then middle (k + 1) pos
          else
            match find s seg seg.[0] pos (tail - len) with
            | -1 -> false
            | i -> middle (k + 1) (i + len)
      in
      String.length first <= tail && at s 0 first 0 && middle 1 (String.length first)

let like_match ~pattern ~ci s = like_matcher ~ci pattern s

(* --- jsonpath --- *)

let jsonpath_steps path =
  let drop =
    if String.starts_with ~prefix:"$." path then 2
    else if String.starts_with ~prefix:"$" path then 1
    else 0
  in
  match String.sub path drop (String.length path - drop) with
  | "" -> []
  | path ->
    List.concat_map
      (fun step ->
        (* x[*] / x[3] -> "x"; "*" / "3" *)
        match String.index_opt step '[' with
        | None -> [ step ]
        | Some i -> [ String.sub step 0 i; String.sub step (i + 1) (String.length step - i - 2) ])
      (String.split_on_char '.' path)

(* --- scalar functions --- *)

let text_arg = function
  | Datum.Text s -> s
  | Datum.Null -> raise Exit
  | d -> Datum.to_display d

let json_arg = function
  | Datum.Json j -> j
  | Datum.Text s -> Json.parse s
  | Datum.Null -> raise Exit
  | d -> err "expected jsonb, got %s" (Datum.to_display d)

let int_arg = function
  | Datum.Int i -> i
  | Datum.Float f -> int_of_float f
  | Datum.Null -> raise Exit
  | d -> err "expected integer, got %s" (Datum.to_display d)

(* jsonb_path_query_array; NULL input raises [Exit] (SQL NULL) *)
let path_query_array a steps =
  let j = json_arg a in
  Datum.Json
    (Json.Arr
       (match Json.get_path j (Lazy.force steps) with
        | Some (Json.Arr l) -> l
        | Some v -> [ v ]
        | None -> []))

let sql_function name (args : Datum.t list) : Datum.t =
  let strict f = try f () with Exit -> Datum.Null in
  match name, args with
  | "coalesce", args ->
    (try List.find (fun d -> not (Datum.is_null d)) args
     with Not_found -> Datum.Null)
  | "nullif", [ a; b ] -> if Datum.equal a b then Datum.Null else a
  | "greatest", args ->
    List.fold_left
      (fun acc d ->
        if Datum.is_null d then acc
        else if Datum.is_null acc || Datum.compare d acc > 0 then d
        else acc)
      Datum.Null args
  | "least", args ->
    List.fold_left
      (fun acc d ->
        if Datum.is_null d then acc
        else if Datum.is_null acc || Datum.compare d acc < 0 then d
        else acc)
      Datum.Null args
  | "md5", [ a ] ->
    strict (fun () -> Datum.Text (Digest.to_hex (Digest.string (text_arg a))))
  | "to_timestamp", [ a ] ->
    strict (fun () -> Datum.Timestamp (as_float a))
  | "length", [ a ] | "char_length", [ a ] ->
    strict (fun () -> Datum.Int (String.length (text_arg a)))
  | "lower", [ a ] ->
    strict (fun () -> Datum.Text (String.lowercase_ascii (text_arg a)))
  | "upper", [ a ] ->
    strict (fun () -> Datum.Text (String.uppercase_ascii (text_arg a)))
  | "substr", [ s; start ] ->
    strict (fun () ->
        let s = text_arg s and start = int_arg start in
        let from = max 0 (start - 1) in
        if from >= String.length s then Datum.Text ""
        else Datum.Text (String.sub s from (String.length s - from)))
  | "substr", [ s; start; len ] ->
    strict (fun () ->
        let s = text_arg s and start = int_arg start and len = int_arg len in
        let from = max 0 (start - 1) in
        let len = min len (String.length s - from) in
        if from >= String.length s || len <= 0 then Datum.Text ""
        else Datum.Text (String.sub s from len))
  | "strpos", [ s; sub ] ->
    strict (fun () ->
        let s = text_arg s and sub = text_arg sub in
        let n = String.length s and m = String.length sub in
        let rec go i =
          if i + m > n then 0
          else if String.sub s i m = sub then i + 1
          else go (i + 1)
        in
        Datum.Int (go 0))
  | "concat", args ->
    Datum.Text
      (String.concat ""
         (List.map
            (fun d -> if Datum.is_null d then "" else Datum.to_display d)
            args))
  | "repeat", [ s; n ] ->
    strict (fun () ->
        let s = text_arg s and n = int_arg n in
        let buf = Buffer.create (String.length s * max 0 n) in
        for _ = 1 to n do Buffer.add_string buf s done;
        Datum.Text (Buffer.contents buf))
  | "abs", [ a ] ->
    strict (fun () ->
        match a with
        | Datum.Int i -> Datum.Int (abs i)
        | d -> Datum.Float (Float.abs (as_float d)))
  | "floor", [ a ] -> strict (fun () -> Datum.Float (Float.floor (as_float a)))
  | "ceil", [ a ] | "ceiling", [ a ] ->
    strict (fun () -> Datum.Float (Float.ceil (as_float a)))
  | "round", [ a ] -> strict (fun () -> Datum.Float (Float.round (as_float a)))
  | "mod", [ a; b ] -> arith Ast.Mod a b
  | "power", [ a; b ] ->
    strict (fun () -> Datum.Float (Float.pow (as_float a) (as_float b)))
  | "sqrt", [ a ] -> strict (fun () -> Datum.Float (sqrt (as_float a)))
  | "sql_date", [ a ] ->
    (* ::date on an ISO-8601 text timestamp: keep YYYY-MM-DD *)
    strict (fun () ->
        let s = text_arg a in
        Datum.Text (if String.length s >= 10 then String.sub s 0 10 else s))
  | "jsonb_array_length", [ a ] ->
    strict (fun () ->
        match Json.array_length (json_arg a) with
        | Some n -> Datum.Int n
        | None -> err "jsonb_array_length on a non-array")
  | "jsonb_typeof", [ a ] ->
    strict (fun () ->
        let ty =
          match json_arg a with
          | Json.Null -> "null"
          | Json.Bool _ -> "boolean"
          | Json.Num _ -> "number"
          | Json.Str _ -> "string"
          | Json.Arr _ -> "array"
          | Json.Obj _ -> "object"
        in
        Datum.Text ty)
  | "jsonb_build_object", args ->
    let rec pairs = function
      | [] -> []
      | k :: v :: rest ->
        let key =
          match k with Datum.Text s -> s | d -> Datum.to_display d
        in
        let value =
          match v with
          | Datum.Json j -> j
          | Datum.Null -> Json.Null
          | Datum.Int i -> Json.Num (float_of_int i)
          | Datum.Float f -> Json.Num f
          | Datum.Bool b -> Json.Bool b
          | Datum.Text s -> Json.Str s
          | Datum.Timestamp f -> Json.Num f
        in
        (key, value) :: pairs rest
      | [ _ ] -> err "jsonb_build_object needs an even number of arguments"
    in
    Datum.Json (Json.Obj (pairs args))
  | name, args -> err "unknown function %s/%d" name (List.length args)

(* --- compilation --- *)

(* A quoted literal compared with a number reads as that number's type,
   as PostgreSQL reads an untyped literal against a typed column; text
   the type cannot hold stays text and keeps the type order. *)
let read_quoted ty lit =
  match ty with
  | Datum.TInt | Datum.TFloat ->
    (try Datum.cast lit ty with Datum.Cast_error _ -> lit)
  | _ -> lit

(* [read_quoted] against whatever the other operand turns out to be; the
   casts are made once, and only if a number turns up *)
let quoted_literal lit =
  let as_int = lazy (read_quoted Datum.TInt lit) in
  let as_float = lazy (read_quoted Datum.TFloat lit) in
  function
  | Datum.Int _ -> Lazy.force as_int
  | Datum.Float _ -> Lazy.force as_float
  | _ -> lit

(* A [$k] bound to text compares as a quoted literal would
   ([quoted_literal]): read as the other operand's type. *)
let read_param v = function
  | Datum.Text _ as lit ->
    (match v with
     | Datum.Int _ -> read_quoted Datum.TInt lit
     | Datum.Float _ -> read_quoted Datum.TFloat lit
     | _ -> lit)
  | p -> p

(* [f x], computed once per execution [x]: an execution is one value,
   compared physically *)
let once_per_execution f =
  let memo = ref None in
  fun x ->
    match !memo with
    | Some (x', v) when x' == x -> v
    | _ ->
      let v = f x in
      memo := Some (x, v);
      v

let param rt x k =
  let values = rt.x_params x in
  if k >= 1 && k <= Array.length values then values.(k - 1)
  else err "unbound parameter $%d" k

(* [f] of [e]'s value, made once per plan for a constant, once per
   execution for a [$k], and per row otherwise *)
let hoisted rt c e f =
  match e with
  | Ast.Const d ->
    let v = f d in
    fun _ _ -> v
  | Ast.Param k ->
    let v = once_per_execution (fun x -> f (param rt x k)) in
    fun x _ -> v x
  | e ->
    let fe = c e in
    fun x row -> f (fe x row)

let rec compile (schema : schema) (rt : 'x runtime) (e : Ast.expr) :
    'x -> Datum.t array -> Datum.t =
  let c e = compile schema rt e in
  match e with
  | Ast.Const d -> fun _ _ -> d
  | Ast.Param k -> fun x _ -> param rt x k
  | Ast.Column (q, name) ->
    let idx = resolve schema q name in
    fun _ row -> row.(idx)
  | Ast.And (a, b) ->
    let fa = c a and fb = c b in
    fun x row -> sql_and (fa x row) (fb x row)
  | Ast.Or (a, b) ->
    let fa = c a and fb = c b in
    fun x row -> sql_or (fa x row) (fb x row)
  | Ast.Not a ->
    let fa = c a in
    fun x row -> sql_not (fa x row)
  | Ast.Cmp (op, e, Ast.Const (Datum.Text _ as lit)) ->
    let fe = c e and read = quoted_literal lit in
    fun x row ->
      let v = fe x row in
      compare_datums op v (read v)
  | Ast.Cmp (op, Ast.Const (Datum.Text _ as lit), e) ->
    let fe = c e and read = quoted_literal lit in
    fun x row ->
      let v = fe x row in
      compare_datums op (read v) v
  (* with a [$k], as the bound statement's quoted literal would: the
     right operand read first, then the left *)
  | Ast.Cmp (op, Ast.Param i, Ast.Param k) ->
    fun x _ ->
      (match param rt x i, param rt x k with
       | a, (Datum.Text _ as b) -> compare_datums op a (read_param a b)
       | a, b -> compare_datums op (read_param b a) b)
  | Ast.Cmp (op, Ast.Column (q, name), Ast.Param k) ->
    (* a plan's most common test, in one closure *)
    let idx = resolve schema q name in
    fun x row ->
      let v = row.(idx) in
      compare_datums op v (read_param v (param rt x k))
  | Ast.Cmp (op, e, Ast.Param k) ->
    let fe = c e in
    fun x row ->
      let v = fe x row in
      compare_datums op v (read_param v (param rt x k))
  | Ast.Cmp (op, Ast.Param k, e) ->
    let fe = c e in
    fun x row ->
      let v = fe x row in
      compare_datums op (read_param v (param rt x k)) v
  | Ast.Cmp (op, a, b) ->
    let fa = c a and fb = c b in
    fun x row -> compare_datums op (fa x row) (fb x row)
  | Ast.Bin (op, a, b) ->
    let fa = c a and fb = c b in
    fun x row -> arith op (fa x row) (fb x row)
  | Ast.Neg a ->
    let fa = c a in
    fun x row ->
      (match fa x row with
       | Datum.Null -> Datum.Null
       | Datum.Int i -> Datum.Int (-i)
       | d -> Datum.Float (-.as_float d))
  | Ast.Is_null (a, positive) ->
    let fa = c a in
    fun x row -> Datum.Bool (Datum.is_null (fa x row) = positive)
  | Ast.In_list (a, items, negated) ->
    let fa = c a and fs = List.map c items in
    fun x row ->
      let v = fa x row in
      if Datum.is_null v then Datum.Null
      else begin
        let found = ref false in
        let saw_null = ref false in
        List.iter
          (fun f ->
            let item = f x row in
            if Datum.is_null item then saw_null := true
            else if Datum.equal v item then found := true)
          fs;
        if !found then Datum.Bool (not negated)
        else if !saw_null then Datum.Null
        else Datum.Bool negated
      end
  | Ast.Between (a, lo, hi) ->
    let fa = c a and flo = c lo and fhi = c hi in
    fun x row ->
      let v = fa x row in
      sql_and
        (compare_datums Ast.Ge v (flo x row))
        (compare_datums Ast.Le v (fhi x row))
  | Ast.Like { subject; pattern; ci; negated } ->
    let fs = c subject
    and matcher =
      hoisted rt c pattern (function
        | Datum.Null -> None
        | p -> Some (like_matcher ~ci (Datum.to_display p)))
    in
    fun x row ->
      let m = matcher x row in
      (match fs x row, m with
       | Datum.Null, _ | _, None -> Datum.Null
       | s, Some m -> Datum.Bool (m (Datum.to_display s) <> negated))
  | Ast.Json_get (a, k, as_text) ->
    let fa = c a and fk = c k in
    fun x row ->
      (match fa x row, fk x row with
       | Datum.Null, _ | _, Datum.Null -> Datum.Null
       | j, key ->
         let j =
           match j with
           | Datum.Json j -> j
           | Datum.Text s -> Json.parse s
           | d -> err "-> applied to %s" (Datum.to_display d)
         in
         let child =
           match key with
           | Datum.Int i -> Json.get_index j i
           | Datum.Text k -> Json.get_field j k
           | d -> err "bad json key %s" (Datum.to_display d)
         in
         (match child with
          | None -> Datum.Null
          | Some v ->
            if as_text then
              (match Json.to_text v with
               | Some s -> Datum.Text s
               | None -> Datum.Null)
            else Datum.Json v))
  | Ast.Cast (a, ty) ->
    let fa = c a in
    fun x row ->
      (try Datum.cast (fa x row) ty
       with Datum.Cast_error m -> raise (Eval_error m))
  | Ast.Case (branches, else_) ->
    let cbranches = List.map (fun (cond, v) -> (c cond, c v)) branches in
    let celse = Option.map c else_ in
    fun x row ->
      let rec go = function
        | [] -> (match celse with Some f -> f x row | None -> Datum.Null)
        | (fc, fv) :: rest -> if truthy (fc x row) then fv x row else go rest
      in
      go cbranches
  | Ast.Func ("jsonb_path_query_array", [ a; path ]) ->
    let fa = c a and steps = hoisted rt c path (fun p -> lazy (jsonpath_steps (text_arg p))) in
    fun x row -> (try path_query_array (fa x row) (steps x row) with Exit -> Datum.Null)
  | Ast.Func ("random", []) -> fun x _ -> Datum.Float (Random.State.float (rt.x_rng x) 1.0)
  | Ast.Func ("now", []) -> fun x _ -> Datum.Timestamp (rt.x_now x)
  | Ast.Func (name, args) ->
    let fs = List.map c args in
    fun x row -> sql_function name (List.map (fun f -> f x row) fs)
  | Ast.Agg _ ->
    err "aggregate functions are not allowed here"
  | Ast.Exists (sel, negated) ->
    (* uncorrelated subqueries evaluate once per execution (InitPlan) *)
    let rows = once_per_execution (rt.x_subquery sel) in
    fun x _row ->
      Datum.Bool (if negated then rows x = [] else rows x <> [])
  | Ast.In_subquery (a, sel, negated) ->
    let fa = c a in
    let run = rt.x_subquery sel in
    (* hash the (single-column) result set once *)
    let table =
      once_per_execution (fun x ->
          let rows = run x in
          let seen = Hashtbl.create (List.length rows) in
          let saw_null = ref false in
          List.iter
            (fun (r : Datum.t array) ->
              if Array.length r <> 1 then err "subquery must return one column";
              if Datum.is_null r.(0) then saw_null := true
              else Hashtbl.replace seen (Datum.to_sql_literal r.(0)) ())
            rows;
          (seen, !saw_null))
    in
    fun x row ->
      let v = fa x row in
      if Datum.is_null v then Datum.Null
      else begin
        let seen, saw_null = table x in
        if Hashtbl.mem seen (Datum.to_sql_literal v) then
          Datum.Bool (not negated)
        else if saw_null then Datum.Null
        else Datum.Bool negated
      end
  | Ast.Scalar_subquery sel ->
    let run = rt.x_subquery sel in
    let value =
      once_per_execution (fun x ->
          match run x with
          | [] -> Datum.Null
          | [ r ] when Array.length r = 1 -> r.(0)
          | [ _ ] -> err "scalar subquery must return one column"
          | _ -> err "scalar subquery returned more than one row")
    in
    fun x _row -> value x

(* A one-off evaluation is its own execution. *)
let one_off : env runtime =
  {
    x_params = (fun _ -> [||]);
    x_now = (fun env -> env.now);
    x_rng = (fun env -> env.rng);
    x_subquery = (fun sel env -> env.subquery sel);
  }

let eval env e = compile [] one_off e env [||]

let eval_bool f x row = truthy (f x row)
