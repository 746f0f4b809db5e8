(** System catalog of one database node: tables, columns, indexes.

    Tables are heap-backed by default or columnar when created
    [USING COLUMNAR]. A table's indexes (B-tree on columns, GIN over an
    expression) are listed here; the operations on them are
    [Executor]'s index functions. *)

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
  primary_key : string list;  (** empty = none *)
  mutable tys : Datum.ty array;  (** [columns]' types, in order *)
}

type t

exception No_such_table of string

exception Duplicate_table of string

val create : unit -> t

(** Bumped by every change a compiled plan depends on: a table created
    or dropped, an index added, a column added. A plan built at an older
    version is rebuilt before it runs. *)
val version : t -> int

val add_table :
  t ->
  name:string ->
  columns:Sqlfront.Ast.column_def list ->
  primary_key:string list ->
  columnar:bool ->
  table

val drop_table : t -> string -> unit

val find_table : t -> string -> table
(** Raises {!No_such_table}. *)

val find_table_opt : t -> string -> table option

val table_names : t -> string list

val add_index : t -> table -> index -> unit

val column_index : table -> string -> int
(** Position of a column; raises [Invalid_argument] if absent. *)

(** The column types, in order (the table's own array: do not mutate). *)
val column_tys : table -> Datum.ty array

val add_column : t -> table -> Sqlfront.Ast.column_def -> unit
