type timestamp = { pt : float; lc : int }

let zero = { pt = 0.0; lc = 0 }

let compare_ts a b =
  let c = Float.compare a.pt b.pt in
  if c <> 0 then c else Int.compare a.lc b.lc

let ( <= ) a b = compare_ts a b <= 0
let ( < ) a b = compare_ts a b < 0

let pp fmt t = Format.fprintf fmt "hlc{%.6f.%d}" t.pt t.lc

(* Wire/durable rendering (commit records). The physical part uses hex
   float notation because the round trip must be exact: a decimal
   rendering rounds, and a commit timestamp that parses back even one
   ulp above the original sorts AFTER reader snapshots it should sort
   before, hiding a resolved commit from the very reader that resolved
   it. [pp] stays decimal — it is display-only. *)
let to_string t = Printf.sprintf "%h.%d" t.pt t.lc

let of_string s =
  match String.rindex_opt s '.' with
  | None -> None
  | Some i -> (
      let pt_s = String.sub s 0 i in
      let lc_s = String.sub s (Stdlib.( + ) i 1) (Stdlib.( - ) (String.length s) (Stdlib.( + ) i 1)) in
      match (float_of_string_opt pt_s, int_of_string_opt lc_s) with
      | Some pt, Some lc -> Some { pt; lc }
      | _ -> None)

type t = { physical : unit -> float; mutable last : timestamp }

let create ~physical () = { physical; last = zero }
let peek t = t.last

(* Local/send event: advance past both the physical clock and the last
   emitted timestamp so consecutive draws are strictly increasing even
   when the physical clock stalls or runs backwards (skew injection). *)
let now t =
  let pt = t.physical () in
  let next =
    if Float.compare pt t.last.pt > 0 then { pt; lc = 0 }
    else { t.last with lc = Stdlib.( + ) t.last.lc 1 }
  in
  t.last <- next;
  next

(* Receive event: merge a remote timestamp. The result dominates the
   local clock, the remote stamp, and the local physical time. *)
let observe t remote =
  let pt = t.physical () in
  let next =
    if
      Float.compare pt t.last.pt > 0
      && Float.compare pt remote.pt > 0
    then { pt; lc = 0 }
    else if compare_ts t.last remote >= 0 then
      { t.last with lc = Stdlib.( + ) t.last.lc 1 }
    else { remote with lc = Stdlib.( + ) remote.lc 1 }
  in
  t.last <- next;
  next
