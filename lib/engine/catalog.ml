type store = Heap_store of Storage.Heap.t | Columnar_store of Storage.Columnar.t

type index_kind =
  | Btree_index of { columns : string list; tree : Storage.Btree.t }
  | Gin_index of { expr : Sqlfront.Ast.expr; gin : Storage.Gin.t }

type index = { idx_name : string; idx_table : string; kind : index_kind }

type table = {
  tbl_name : string;
  mutable columns : Sqlfront.Ast.column_def list;
  store : store;
  mutable indexes : index list;
  primary_key : string list;
  mutable tys : Datum.ty array;  (** [columns]' types, in order *)
}

type t = { tables : (string, table) Hashtbl.t; mutable version : int }

exception No_such_table of string

exception Duplicate_table of string

let create () = { tables = Hashtbl.create 32; version = 0 }

let version t = t.version
let bump t = t.version <- t.version + 1

let add_table t ~name ~columns ~primary_key ~columnar =
  if Hashtbl.mem t.tables name then raise (Duplicate_table name);
  let store =
    if columnar then
      Columnar_store
        (Storage.Columnar.create ~name ~ncols:(List.length columns) ())
    else Heap_store (Storage.Heap.create ~name ())
  in
  let tys = Array.of_list (List.map (fun (c : Sqlfront.Ast.column_def) -> c.col_ty) columns) in
  let table = { tbl_name = name; columns; store; indexes = []; primary_key; tys } in
  Hashtbl.replace t.tables name table;
  bump t;
  table

let drop_table t name =
  if not (Hashtbl.mem t.tables name) then raise (No_such_table name);
  Hashtbl.remove t.tables name;
  bump t

let find_table_opt t name = Hashtbl.find_opt t.tables name

let find_table t name =
  match find_table_opt t name with
  | Some table -> table
  | None -> raise (No_such_table name)

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let add_index t table index =
  table.indexes <- table.indexes @ [ index ];
  bump t

let column_index table name =
  let rec go i = function
    | [] ->
      invalid_arg
        (Printf.sprintf "table %s has no column %s" table.tbl_name name)
    | (c : Sqlfront.Ast.column_def) :: rest ->
      if String.equal c.col_name name then i else go (i + 1) rest
  in
  go 0 table.columns

let column_tys table = table.tys

let add_column t table (def : Sqlfront.Ast.column_def) =
  table.columns <- table.columns @ [ def ];
  table.tys <- Array.append table.tys [| def.col_ty |];
  bump t
