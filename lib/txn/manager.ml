type xid = int

type status = In_progress | Committed | Aborted

exception No_such_prepared of string

exception In_doubt of { gid : string; xid : xid }
(** raised by timestamp-based visibility when a scan hits a prepared
    transaction that may commit at or before the read timestamp *)

type t = {
  mutable next_xid : xid;
  mutable clog : Bytes.t;
      (** one status byte per xid, as pg_xact: 0 never recorded, 1 in
          progress, 2 committed, 3 aborted *)
  mutable running : xid list;  (** begun, not yet finished or prepared *)
  mutable wrote : xid list;
      (** running xids that have logged their [Begin]: only these leave
          commit or abort records *)
  mutable xid_floor : xid;
      (** the last [Wal.Xid_floor] logged: no xid at or above it issued *)
  prepared : (string, xid) Hashtbl.t;
  mutable commit_ts : Hlc.timestamp array;
      (** HLC commit timestamp per xid, [no_ts] where none (WAL-durable) *)
  prepare_ts : (xid, Hlc.timestamp) Hashtbl.t;
      (** HLC stamp taken at PREPARE: a lower bound on the eventual
          commit timestamp, pruning which readers must block *)
  mutable hlc : Hlc.t;
      (** this node's clock; a pure logical clock until the cluster
          layer installs one wired to the simulated physical clock *)
  wal : Wal.t;
  locks : Lock.t;
}

(* Physically unique: no stamp the clock issues is [==] to it. *)
let no_ts = { Hlc.pt = Float.nan; lc = -1 }

let create () =
  {
    next_xid = 1;
    clog = Bytes.make 256 '\000';
    running = [];
    wrote = [];
    xid_floor = 1;
    prepared = Hashtbl.create 16;
    commit_ts = Array.make 256 no_ts;
    prepare_ts = Hashtbl.create 16;
    hlc = Hlc.create ~physical:(fun () -> 0.0) ();
    wal = Wal.create ();
    locks = Lock.create ();
  }

let set_hlc t hlc = t.hlc <- hlc
let hlc t = t.hlc

let wal t = t.wal

let locks t = t.locks

(* Both per-xid arrays double until [xid] fits. *)
let reserve t xid =
  let n = Bytes.length t.clog in
  if xid >= n then begin
    let m = ref n in
    while xid >= !m do m := 2 * !m done;
    let clog = Bytes.make !m '\000' in
    Bytes.blit t.clog 0 clog 0 n;
    t.clog <- clog;
    let cts = Array.make !m no_ts in
    Array.blit t.commit_ts 0 cts 0 n;
    t.commit_ts <- cts
  end

let set_status t xid st =
  reserve t xid;
  Bytes.set t.clog xid
    (match st with In_progress -> '\001' | Committed -> '\002' | Aborted -> '\003')

let set_commit_ts t xid ts =
  reserve t xid;
  t.commit_ts.(xid) <- ts

(* Xids are issued without a WAL record; only the floor is logged, once
   per [floor_step] xids, so a crash can never lead to an xid being
   reissued (2PC recovery asks [is_active] of a coordinator xid named in
   a gid, which must not come back to life as someone else's). *)
let floor_step = 1024

let begin_txn t =
  let xid = t.next_xid in
  t.next_xid <- xid + 1;
  if xid >= t.xid_floor then begin
    t.xid_floor <- xid + floor_step;
    ignore (Wal.append t.wal (Wal.Xid_floor t.xid_floor))
  end;
  set_status t xid In_progress;
  t.running <- xid :: t.running;
  xid

(* Unknown xids (never recorded, or out of range) read as crashed, hence
   aborted. *)
let status t xid =
  if xid < 0 || xid >= Bytes.length t.clog then Aborted
  else
    match Bytes.unsafe_get t.clog xid with
    | '\001' -> In_progress
    | '\002' -> Committed
    | _ -> Aborted

let is_active t xid = status t xid = In_progress

let active_xids t =
  let prepared = Hashtbl.fold (fun _ xid acc -> xid :: acc) t.prepared [] in
  List.sort_uniq Int.compare (t.running @ prepared)

let take_snapshot t =
  let active = active_xids t in
  let xmin = match active with [] -> t.next_xid | x :: _ -> x in
  { Snapshot.xmin; xmax = t.next_xid; active }

let check_running t xid =
  if not (List.mem xid t.running) then
    invalid_arg (Printf.sprintf "xid %d is not a running transaction" xid)

(* A transaction's first write logs its [Begin], as PostgreSQL assigns
   an xid lazily: until then it has left nothing durable to decide. *)
let note_write t xid =
  if not (List.mem xid t.wrote) then begin
    check_running t xid;
    ignore (Wal.append t.wal (Wal.Begin xid));
    t.wrote <- xid :: t.wrote
  end

let wrote t xid = List.mem xid t.wrote

let log t record =
  (match record with
   | Wal.Insert { xid; _ } | Wal.Update { xid; _ } | Wal.Delete { xid; _ } ->
     note_write t xid
   | _ -> ());
  ignore (Wal.append t.wal record)

(* Returns whether the xid wrote, having logged [record] if it did. A
   transaction that wrote nothing ends in memory only: after a crash its
   xid reads as never recorded, hence aborted, which no reader can tell
   from committed. *)
let finish t xid st record =
  check_running t xid;
  let wrote = List.mem xid t.wrote in
  if wrote then begin
    ignore (Wal.append t.wal record);
    t.wrote <- List.filter (fun x -> x <> xid) t.wrote
  end;
  set_status t xid st;
  t.running <- List.filter (fun x -> x <> xid) t.running;
  Lock.release_all t.locks ~owner:xid;
  wrote

(* Every commit that wrote gets an HLC stamp, WAL-logged right after the
   commit record so snapshot visibility survives a crash: [ts], a
   coordinator-assigned stamp merged into the clock so it never
   re-issues anything at or below it, or a fresh local one. *)
let stamp_commit t xid ts =
  let ts =
    match ts with
    | Some ts ->
      ignore (Hlc.observe t.hlc ts);
      ts
    | None -> Hlc.now t.hlc
  in
  set_commit_ts t xid ts;
  ignore (Wal.append t.wal (Wal.Commit_ts { xid; ts }))

let commit ?ts t xid =
  if finish t xid Committed (Wal.Commit xid) then
    stamp_commit t xid ts

let abort t xid = ignore (finish t xid Aborted (Wal.Abort xid))

let prepare t xid ~gid =
  check_running t xid;
  if Hashtbl.mem t.prepared gid then
    invalid_arg (Printf.sprintf "prepared transaction %S already exists" gid);
  ignore (Wal.append t.wal (Wal.Prepare { xid; gid }));
  (* Detach from the session: no longer "running" but still in progress,
     and its locks stay held. *)
  t.running <- List.filter (fun x -> x <> xid) t.running;
  t.wrote <- List.filter (fun x -> x <> xid) t.wrote;
  Hashtbl.replace t.prepared gid xid;
  (* The eventual commit timestamp is assigned at the coordinator after
     this PREPARE's reply lands, so it must exceed this stamp: readers
     at an older snapshot need not block on us. *)
  Hashtbl.replace t.prepare_ts xid (Hlc.now t.hlc)

let take_prepared t gid =
  match Hashtbl.find_opt t.prepared gid with
  | Some xid -> Hashtbl.remove t.prepared gid; xid
  | None -> raise (No_such_prepared gid)

let commit_prepared ?ts t ~gid =
  let xid = take_prepared t gid in
  ignore (Wal.append t.wal (Wal.Commit_prepared { xid; gid }));
  set_status t xid Committed;
  stamp_commit t xid ts;
  Hashtbl.remove t.prepare_ts xid;
  Lock.release_all t.locks ~owner:xid

let rollback_prepared t ~gid =
  let xid = take_prepared t gid in
  ignore (Wal.append t.wal (Wal.Rollback_prepared { xid; gid }));
  set_status t xid Aborted;
  Hashtbl.remove t.prepare_ts xid;
  Lock.release_all t.locks ~owner:xid

(* Rebuild all in-memory transaction state from the WAL after a crash.
   The WAL itself is the only durable structure; clog, running set,
   prepared table and locks are reconstructed. Transactions that were
   running (no Commit/Abort/Prepare record) or that ended without writing
   simply vanish: they are not entered into the clog, and [status]
   reports unknown xids as Aborted, which is exactly PostgreSQL's crashed-transaction
   semantics. Prepared transactions survive with their xid in progress;
   their row locks are not reacquired here (the engine-level recovery
   re-locks nothing — with no running sessions there is nobody to
   conflict with until new sessions start, and new writers conflict on
   tuple xmax instead). Numbering resumes at the last logged xid floor. *)
let crash_recover t =
  Bytes.fill t.clog 0 (Bytes.length t.clog) '\000';
  Array.fill t.commit_ts 0 (Array.length t.commit_ts) no_ts;
  Hashtbl.reset t.prepared;
  (* prepare stamps are volatile: a prepared transaction recovered from
     the WAL has no known lower bound on its commit timestamp, so every
     snapshot reader conservatively treats it as in-doubt *)
  Hashtbl.reset t.prepare_ts;
  t.running <- [];
  t.wrote <- [];
  t.xid_floor <- 1;
  Lock.reset t.locks;
  let apply (_, record) =
    match record with
    | Wal.Commit xid -> set_status t xid Committed
    | Wal.Abort xid -> set_status t xid Aborted
    | Wal.Prepare { xid; gid } ->
      set_status t xid In_progress;
      Hashtbl.replace t.prepared gid xid
    | Wal.Commit_prepared { xid; gid } ->
      Hashtbl.remove t.prepared gid;
      set_status t xid Committed
    | Wal.Rollback_prepared { xid; gid } ->
      Hashtbl.remove t.prepared gid;
      set_status t xid Aborted
    | Wal.Commit_ts { xid; ts } -> set_commit_ts t xid ts
    | Wal.Xid_floor f -> t.xid_floor <- f
    | Wal.Begin _ | Wal.Insert _ | Wal.Update _ | Wal.Delete _
    | Wal.Truncate _ | Wal.Restore_point _ -> ()
  in
  List.iter apply (Wal.records t.wal);
  t.next_xid <- t.xid_floor

let prepared_transactions t =
  Hashtbl.fold (fun gid xid acc -> (gid, xid) :: acc) t.prepared []

(* --- timestamp-based visibility (distributed snapshots) --- *)

let commit_ts_of t xid =
  if xid < 0 || xid >= Array.length t.commit_ts then None
  else
    let ts = t.commit_ts.(xid) in
    if ts == no_ts then None else Some ts

let prepared_gid_of t xid =
  Hashtbl.fold
    (fun gid x acc -> if x = xid then Some gid else acc)
    t.prepared None

let xid_in_doubt t ~ts xid =
  match prepared_gid_of t xid with
  | None -> None
  | Some gid -> (
    match Hashtbl.find_opt t.prepare_ts xid with
    | Some pts when Hlc.compare_ts pts ts > 0 ->
      (* prepared after the snapshot: its commit timestamp will exceed
         [ts], so this reader can safely skip it *)
      None
    | _ -> Some gid)

let status_at t ~ts xid =
  match status t xid with
  | Committed -> (
    match commit_ts_of t xid with
    | Some cts when Hlc.compare_ts cts ts > 0 ->
      (* committed, but after this reader's snapshot *)
      In_progress
    | _ -> Committed)
  | In_progress -> (
    match xid_in_doubt t ~ts xid with
    | Some gid -> raise (In_doubt { gid; xid })
    | None -> In_progress)
  | Aborted -> Aborted

let status_resolving t xid =
  match status t xid with
  | In_progress -> (
    match prepared_gid_of t xid with
    | Some gid -> raise (In_doubt { gid; xid })
    | None -> In_progress)
  | st -> st

let oldest_active_xid t =
  match active_xids t with [] -> t.next_xid | x :: _ -> x
