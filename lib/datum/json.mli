(** Minimal JSON values with PostgreSQL-JSONB-like accessors.

    This module stands in for PostgreSQL's [jsonb] type. It provides a
    parser, a canonical printer, and the accessors the Citus layer and the
    real-time-analytics workload rely on ([->], [->>], [jsonb_path]-style
    traversal, array length). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val equal : t -> t -> bool

(** Total order used for SQL comparison of JSON values: type rank first
    (Null < Bool < Num < Str < Arr < Obj), then structural comparison. *)
val compare : t -> t -> int

(** [parse s] parses a JSON document. Raises [Parse_error] with a
    position-annotated message on malformed input. *)
val parse : string -> t

exception Parse_error of string

(** Canonical serialization: object keys in insertion order, minimal
    whitespace, numbers printed without trailing [.0] when integral. *)
val to_string : t -> string

(** [get_field j k] is the value of key [k] if [j] is an object ([->]). *)
val get_field : t -> string -> t option

(** [get_index j i] is element [i] if [j] is an array ([->]). *)
val get_index : t -> int -> t option

(** [get_path j path] walks nested objects/arrays; path elements that parse
    as integers index arrays. Mirrors [#>] / [jsonb_path_query] for simple
    paths. [ "payload"; "commits"; "*"; "message" ] collects a wildcard
    step over array elements into an array, like [$.payload.commits[*].message]. *)
val get_path : t -> string list -> t option

(** [array_length j] is [Some n] when [j] is an array ([jsonb_array_length]). *)
val array_length : t -> int option

(** Text extraction ([->>]): strings unquoted, other values serialized,
    JSON null becomes [None]. *)
val to_text : t -> string option


