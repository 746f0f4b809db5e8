type xid = int

type t = { xmin : xid; xmax : xid; active : xid list }

let sees t xid =
  if xid >= t.xmax then false
  else if xid < t.xmin then true
  else not (List.mem xid t.active)

type read_mode = Latest | Resolving | At of Hlc.timestamp

let pp_read_mode fmt = function
  | Latest -> Format.pp_print_string fmt "latest"
  | Resolving -> Format.pp_print_string fmt "resolving"
  | At ts -> Format.fprintf fmt "at(%a)" Hlc.pp ts

