type lsn = int

type record =
  | Begin of int
  | Insert of { xid : int; table : string; tid : int; row : Datum.t array }
  | Update of {
      xid : int;
      table : string;
      old_tid : int;
      new_tid : int;
      row : Datum.t array;
    }
  | Delete of { xid : int; table : string; tid : int }
  | Commit of int
  | Abort of int
  | Prepare of { xid : int; gid : string }
  | Commit_prepared of { xid : int; gid : string }
  | Rollback_prepared of { xid : int; gid : string }
  | Commit_ts of { xid : int; ts : Hlc.timestamp }
  | Truncate of string
  | Restore_point of string
  | Xid_floor of int

(* Dense: the record at LSN [l] sits at index [l - 1]; slots at [len] and
   beyond hold [filler] until appended over. *)
type t = { mutable log : record array; mutable len : int }

let filler = Xid_floor 0

let create () = { log = Array.make 256 filler; len = 0 }

let append t record =
  if t.len = Array.length t.log then begin
    let log = Array.make (2 * t.len) filler in
    Array.blit t.log 0 log 0 t.len;
    t.log <- log
  end;
  t.log.(t.len) <- record;
  t.len <- t.len + 1;
  t.len

let current_lsn t = t.len

let size t = t.len

let records ?(from = 0) ?upto t =
  let lo = max from 1 in
  let hi = min (Option.value ~default:max_int upto) (t.len + 1) in
  if hi <= lo then [] else List.init (hi - lo) (fun i -> (lo + i, t.log.(lo + i - 1)))

let find_restore_point t name =
  let rec scan l =
    if l < 1 then None
    else
      match t.log.(l - 1) with
      | Restore_point n when String.equal n name -> Some l
      | _ -> scan (l - 1)
  in
  scan t.len
