(* Transaction manager, snapshots, locks, WAL, prepared transactions. *)

open Txn

let test_snapshot_sees () =
  let s = { Snapshot.xmin = 5; xmax = 10; active = [ 7 ] } in
  Alcotest.(check bool) "below xmin" true (Snapshot.sees s 3);
  Alcotest.(check bool) "active" false (Snapshot.sees s 7);
  Alcotest.(check bool) "in window, finished" true (Snapshot.sees s 6);
  Alcotest.(check bool) "at xmax" false (Snapshot.sees s 10);
  Alcotest.(check bool) "beyond xmax" false (Snapshot.sees s 12)

let test_begin_commit () =
  let m = Manager.create () in
  let x = Manager.begin_txn m in
  Alcotest.(check bool) "active" true (Manager.is_active m x);
  Manager.commit m x;
  Alcotest.(check bool) "committed" true (Manager.status m x = Manager.Committed)

let test_abort () =
  let m = Manager.create () in
  let x = Manager.begin_txn m in
  Manager.abort m x;
  Alcotest.(check bool) "aborted" true (Manager.status m x = Manager.Aborted)

let test_snapshot_excludes_concurrent () =
  let m = Manager.create () in
  let x1 = Manager.begin_txn m in
  let x2 = Manager.begin_txn m in
  let snap = Manager.take_snapshot m in
  Alcotest.(check bool) "x1 invisible" false (Snapshot.sees snap x1);
  Manager.commit m x1;
  (* snapshot taken before commit still does not see it *)
  Alcotest.(check bool) "still invisible" false (Snapshot.sees snap x1);
  let snap2 = Manager.take_snapshot m in
  Alcotest.(check bool) "new snapshot sees x1" true (Snapshot.sees snap2 x1);
  Manager.commit m x2

let test_unknown_xid_is_aborted () =
  let m = Manager.create () in
  Alcotest.(check bool) "crashed xid" true (Manager.status m 999 = Manager.Aborted)

let test_double_commit_rejected () =
  let m = Manager.create () in
  let x = Manager.begin_txn m in
  Manager.commit m x;
  match Manager.commit m x with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double commit should fail"

(* --- locks --- *)

let test_row_lock_conflict () =
  let l = Lock.create () in
  let t = Lock.Row ("t", 1) in
  Alcotest.(check bool) "first grant" true
    (Lock.acquire l ~owner:1 t Lock.Row_lock = Lock.Granted);
  (match Lock.acquire l ~owner:2 t Lock.Row_lock with
   | Lock.Blocked [ 1 ] -> ()
   | _ -> Alcotest.fail "expected blocked by 1");
  Lock.release_all l ~owner:1;
  Alcotest.(check bool) "after release" true
    (Lock.acquire l ~owner:2 t Lock.Row_lock = Lock.Granted)

let test_reacquire_is_noop () =
  let l = Lock.create () in
  let t = Lock.Row ("t", 1) in
  ignore (Lock.acquire l ~owner:1 t Lock.Row_lock);
  Alcotest.(check bool) "reacquire" true
    (Lock.acquire l ~owner:1 t Lock.Row_lock = Lock.Granted)

let test_table_lock_modes () =
  let l = Lock.create () in
  let t = Lock.Table "t" in
  ignore (Lock.acquire l ~owner:1 t Lock.Access_share);
  ignore (Lock.acquire l ~owner:2 t Lock.Row_exclusive);
  (* reads and writes coexist; DDL does not *)
  (match Lock.acquire l ~owner:3 t Lock.Access_exclusive with
   | Lock.Blocked holders ->
     Alcotest.(check int) "two holders" 2 (List.length holders)
   | Lock.Granted -> Alcotest.fail "DDL should block")

let test_wait_edges () =
  let l = Lock.create () in
  let t = Lock.Row ("t", 7) in
  ignore (Lock.acquire l ~owner:1 t Lock.Row_lock);
  ignore (Lock.acquire l ~owner:2 t Lock.Row_lock);
  Alcotest.(check (list (pair int int))) "edge 2->1" [ (2, 1) ] (Lock.wait_edges l);
  (* granting clears the wait *)
  Lock.release_all l ~owner:1;
  ignore (Lock.acquire l ~owner:2 t Lock.Row_lock);
  Alcotest.(check (list (pair int int))) "no edges" [] (Lock.wait_edges l)

let test_local_deadlock_detection () =
  let l = Lock.create () in
  let r1 = Lock.Row ("t", 1) and r2 = Lock.Row ("t", 2) in
  ignore (Lock.acquire l ~owner:1 r1 Lock.Row_lock);
  ignore (Lock.acquire l ~owner:2 r2 Lock.Row_lock);
  ignore (Lock.acquire l ~owner:1 r2 Lock.Row_lock);
  (* 1 waits for 2 *)
  Alcotest.(check bool) "no deadlock yet" true (Lock.detect_deadlock l = None);
  ignore (Lock.acquire l ~owner:2 r1 Lock.Row_lock);
  (* 2 waits for 1: cycle *)
  match Lock.detect_deadlock l with
  | Some members ->
    Alcotest.(check (list int)) "cycle members" [ 1; 2 ]
      (List.sort Int.compare members)
  | None -> Alcotest.fail "deadlock not detected"

(* The lock table as it was kept before its owner index: [release_all]
   folded over every bucket. The index must not change what a reader of
   the table sees. *)
module Fold_lock = struct
  type t = {
    held : (Lock.target, (Lock.xid * Lock.mode) list) Hashtbl.t;
    waiting : (Lock.xid, Lock.target * Lock.mode) Hashtbl.t;
  }

  let conflicts (a : Lock.mode) (b : Lock.mode) =
    match a, b with
    | Access_exclusive, _ | _, Access_exclusive -> true
    | Row_lock, Row_lock -> true
    | _ -> false

  let create () = { held = Hashtbl.create 64; waiting = Hashtbl.create 16 }

  let holders t target = Option.value ~default:[] (Hashtbl.find_opt t.held target)

  let acquire t ~owner target mode : Lock.outcome =
    let current = holders t target in
    if List.exists (fun (o, m) -> o = owner && m = mode) current then begin
      Hashtbl.remove t.waiting owner;
      Granted
    end
    else
      match List.filter (fun (o, m) -> o <> owner && conflicts mode m) current with
      | [] ->
        Hashtbl.remove t.waiting owner;
        Hashtbl.replace t.held target ((owner, mode) :: current);
        Granted
      | conflicting ->
        Hashtbl.replace t.waiting owner (target, mode);
        Blocked (List.map fst conflicting)

  let cancel_wait t ~owner = Hashtbl.remove t.waiting owner

  let release_all t ~owner =
    Hashtbl.remove t.waiting owner;
    Hashtbl.fold
      (fun target holders acc ->
        if List.exists (fun (o, _) -> o = owner) holders then
          (target, List.filter (fun (o, _) -> o <> owner) holders) :: acc
        else acc)
      t.held []
    |> List.iter (fun (target, remaining) ->
           if remaining = [] then Hashtbl.remove t.held target
           else Hashtbl.replace t.held target remaining)

  let wait_edges t =
    Hashtbl.fold
      (fun waiter (target, mode) acc ->
        List.fold_left
          (fun acc (holder, m) ->
            if holder <> waiter && conflicts mode m then (waiter, holder) :: acc else acc)
          acc (holders t target))
      t.waiting []
end

type lop =
  | L_acquire of int * Lock.target * Lock.mode
  | L_release of int
  | L_cancel of int

let lock_targets =
  [ Lock.Table "a"; Lock.Table "b"; Lock.Row ("a", 1); Lock.Row ("a", 2); Lock.Row ("b", 1) ]

let lop_gen =
  QCheck2.Gen.(
    let owner = int_range 1 5 in
    frequency
      [
        ( 6,
          map3
            (fun o target mode -> L_acquire (o, target, mode))
            owner (oneofl lock_targets)
            (oneofl Lock.[ Access_share; Row_exclusive; Access_exclusive; Row_lock ]) );
        (2, map (fun o -> L_release o) owner);
        (1, map (fun o -> L_cancel o) owner);
      ])

let prop_lock_index =
  QCheck2.Test.make ~name:"lock release matches the fold" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) lop_gen)
    (fun ops ->
      let l = Lock.create () and m = Fold_lock.create () in
      List.iteri
        (fun i op ->
          (match op with
           | L_acquire (owner, target, mode) ->
             if Lock.acquire l ~owner target mode <> Fold_lock.acquire m ~owner target mode
             then QCheck2.Test.fail_reportf "op %d: acquire outcome differs" i
           | L_release owner ->
             Lock.release_all l ~owner;
             Fold_lock.release_all m ~owner
           | L_cancel owner ->
             Lock.cancel_wait l ~owner;
             Fold_lock.cancel_wait m ~owner);
          List.iter
            (fun target ->
              if Lock.holders l target <> Fold_lock.holders m target then
                QCheck2.Test.fail_reportf "op %d: holders differ" i)
            lock_targets;
          if Lock.wait_edges l <> Fold_lock.wait_edges m then
            QCheck2.Test.fail_reportf "op %d: wait edges differ" i)
        ops;
      true)

(* --- WAL --- *)

let test_wal_order_and_restore_point () =
  let w = Wal.create () in
  let l1 = Wal.append w (Wal.Begin 1) in
  let _ = Wal.append w (Wal.Insert { xid = 1; table = "t"; tid = 0; row = [||] }) in
  let l3 = Wal.append w (Wal.Restore_point "rp1") in
  let _ = Wal.append w (Wal.Commit 1) in
  Alcotest.(check bool) "lsn monotonic" true (l3 > l1);
  Alcotest.(check (option int)) "restore point" (Some l3)
    (Wal.find_restore_point w "rp1");
  Alcotest.(check int) "records upto" 2
    (List.length (Wal.records ~upto:l3 w))

(* The log against a newest-first list of (lsn, record), as it used to be
   kept: appends past several array growths, slices with bounds inside
   and outside the log, and restore points whose names repeat. *)
type wop = W_append of Wal.record | W_slice of int option * int option

let wop_gen =
  QCheck2.Gen.(
    let bound = oneof [ int_range (-3) 1300; return min_int; return max_int ] in
    frequency
      [
        (6, map (fun i -> W_append (Wal.Begin i)) small_nat);
        (2, map (fun i -> W_append (Wal.Restore_point (Printf.sprintf "rp%d" i)))
             (int_range 0 4));
        (1, map (fun i -> W_append (Wal.Xid_floor i)) small_nat);
        (1, map2 (fun a b -> W_slice (a, b)) (option bound) (option bound));
      ])

let prop_wal_model =
  QCheck2.Test.make ~name:"wal matches a list model" ~count:20
    QCheck2.Gen.(list_size (int_range 0 1500) wop_gen)
    (fun ops ->
      let w = Wal.create () in
      let model = ref [] in
      let want_slice ?(from = 0) ?(upto = max_int) () =
        List.rev
          (List.filter (fun (l, _) -> l >= from && l < upto) !model)
      in
      let check () =
        let n = List.length !model in
        if Wal.size w <> n || Wal.current_lsn w <> n then
          QCheck2.Test.fail_reportf "size %d, current_lsn %d, model %d"
            (Wal.size w) (Wal.current_lsn w) n;
        for i = 0 to 5 do
          let name = Printf.sprintf "rp%d" i in
          let want =
            List.find_map
              (function l, Wal.Restore_point r when r = name -> Some l | _ -> None)
              !model
          in
          if Wal.find_restore_point w name <> want then
            QCheck2.Test.fail_reportf "find_restore_point %s" name
        done
      in
      List.iter
        (function
          | W_append r ->
            let l = Wal.append w r in
            if l <> List.length !model + 1 then
              QCheck2.Test.fail_reportf "append gave lsn %d" l;
            model := (l, r) :: !model;
            check ()
          | W_slice (from, upto) ->
            if Wal.records ?from ?upto w <> want_slice ?from ?upto () then
              QCheck2.Test.fail_reportf "records ~from:%s ~upto:%s"
                (Option.fold ~none:"-" ~some:string_of_int from)
                (Option.fold ~none:"-" ~some:string_of_int upto))
        ops;
      Wal.records w = want_slice ())

(* A transaction's records: none at all until it writes; then [Begin]
   before its first write, and its outcome (with a stamp, on commit). *)
let test_lazy_commit_records () =
  let m = Manager.create () in
  let w = Manager.wal m in
  let tail from = List.map snd (Wal.records ~from w) in
  let reader = Manager.begin_txn m in
  let lsn = Wal.current_lsn w in
  Manager.commit m reader;
  let aborted = Manager.begin_txn m in
  Manager.abort m aborted;
  Alcotest.(check int) "read-only commit and abort log nothing" lsn
    (Wal.current_lsn w);
  Alcotest.(check bool) "unwritten commit has no stamp" true
    (Manager.commit_ts_of m reader = None);
  let writer = Manager.begin_txn m in
  let row = Wal.Insert { xid = writer; table = "t"; tid = 0; row = [||] } in
  Manager.log m row;
  Manager.note_write m writer;
  Manager.commit m writer;
  (match tail (lsn + 1) with
   | [ Wal.Begin b; r; Wal.Commit c; Wal.Commit_ts { xid; ts } ]
     when b = writer && r = row && c = writer && xid = writer
          && Manager.commit_ts_of m writer = Some ts -> ()
   | _ -> Alcotest.fail "expected Begin, Insert, Commit, Commit_ts");
  Alcotest.check_raises "note_write needs a running xid"
    (Invalid_argument
       (Printf.sprintf "xid %d is not a running transaction" writer))
    (fun () -> Manager.note_write m writer)

(* --- prepared transactions --- *)

let test_prepare_commit_prepared () =
  let m = Manager.create () in
  let x = Manager.begin_txn m in
  ignore (Lock.acquire (Manager.locks m) ~owner:x (Lock.Row ("t", 1)) Lock.Row_lock);
  Manager.prepare m x ~gid:"citus_0_1_2";
  (* still in progress, lock still held *)
  Alcotest.(check bool) "in progress" true (Manager.status m x = Manager.In_progress);
  (match Lock.acquire (Manager.locks m) ~owner:99 (Lock.Row ("t", 1)) Lock.Row_lock with
   | Lock.Blocked _ -> ()
   | Lock.Granted -> Alcotest.fail "prepared txn must keep its locks");
  Alcotest.(check (list (pair string int))) "listed" [ ("citus_0_1_2", x) ]
    (Manager.prepared_transactions m);
  Manager.commit_prepared m ~gid:"citus_0_1_2";
  Alcotest.(check bool) "committed" true (Manager.status m x = Manager.Committed);
  (match Lock.acquire (Manager.locks m) ~owner:99 (Lock.Row ("t", 1)) Lock.Row_lock with
   | Lock.Granted -> ()
   | Lock.Blocked _ -> Alcotest.fail "locks must be released")

let test_rollback_prepared () =
  let m = Manager.create () in
  let x = Manager.begin_txn m in
  Manager.prepare m x ~gid:"g";
  Manager.rollback_prepared m ~gid:"g";
  Alcotest.(check bool) "aborted" true (Manager.status m x = Manager.Aborted)

let test_prepared_missing_gid () =
  let m = Manager.create () in
  match Manager.commit_prepared m ~gid:"nope" with
  | exception Manager.No_such_prepared "nope" -> ()
  | () -> Alcotest.fail "should raise"

let test_duplicate_gid_rejected () =
  let m = Manager.create () in
  let x1 = Manager.begin_txn m in
  let x2 = Manager.begin_txn m in
  Manager.prepare m x1 ~gid:"g";
  match Manager.prepare m x2 ~gid:"g" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate gid should fail"

let test_prepared_blocks_oldest_xid () =
  let m = Manager.create () in
  let x1 = Manager.begin_txn m in
  Manager.prepare m x1 ~gid:"g";
  let x2 = Manager.begin_txn m in
  Manager.commit m x2;
  Alcotest.(check int) "oldest is the prepared txn" x1 (Manager.oldest_active_xid m);
  Manager.commit_prepared m ~gid:"g";
  Alcotest.(check bool) "advances after resolve" true
    (Manager.oldest_active_xid m > x1)

(* --- hybrid logical clocks --- *)

let ts = Alcotest.testable Hlc.pp (fun a b -> Hlc.compare_ts a b = 0)

let test_hlc_monotone_under_stalled_clock () =
  (* physical clock frozen: the logical component alone must keep every
     draw strictly increasing (pure Lamport behavior) *)
  let h = Hlc.create ~physical:(fun () -> 1.0) () in
  let prev = ref (Hlc.now h) in
  for _ = 1 to 100 do
    let t = Hlc.now h in
    Alcotest.(check bool) "strictly increasing" true Hlc.(!prev < t);
    Alcotest.(check (float 0.0)) "pt pinned to physical" 1.0 t.Hlc.pt;
    prev := t
  done;
  Alcotest.(check ts) "peek does not advance" !prev (Hlc.peek h)

let test_hlc_monotone_under_backwards_clock () =
  (* the physical clock runs backwards (negative skew kicking in):
     timestamps still only move forward *)
  let phys = ref 10.0 in
  let h = Hlc.create ~physical:(fun () -> !phys) () in
  let t1 = Hlc.now h in
  phys := 2.0;
  let t2 = Hlc.now h in
  Alcotest.(check bool) "never goes back" true Hlc.(t1 < t2);
  Alcotest.(check (float 0.0)) "holds the high-water mark" 10.0 t2.Hlc.pt

let test_hlc_tracks_physical_time () =
  let phys = ref 0.0 in
  let h = Hlc.create ~physical:(fun () -> !phys) () in
  ignore (Hlc.now h);
  phys := 5.0;
  let t = Hlc.now h in
  Alcotest.(check (float 0.0)) "pt follows the clock" 5.0 t.Hlc.pt;
  Alcotest.(check int) "logical resets on fresh physical time" 0 t.Hlc.lc

let test_hlc_observe_dominates_remote () =
  (* a remote stamp from a node skewed far into the future: the local
     clock absorbs it in the logical component and causality holds *)
  let h = Hlc.create ~physical:(fun () -> 1.0) () in
  let remote = { Hlc.pt = 100.0; lc = 7 } in
  let t = Hlc.observe h remote in
  Alcotest.(check bool) "dominates the remote stamp" true Hlc.(remote < t);
  Alcotest.(check bool) "skew is absorbed logically, not amplified" true
    (Float.compare t.Hlc.pt remote.Hlc.pt <= 0);
  (* every later local draw also dominates the observed stamp *)
  let t' = Hlc.now h in
  Alcotest.(check bool) "send after receive keeps happening-before" true
    Hlc.(t < t')

let test_hlc_skew_bound () =
  (* however skewed its physical thunk, a clock never issues a stamp
     whose pt exceeds the max physical time / remote pt it has seen *)
  let phys = ref 3.0 in
  let h = Hlc.create ~physical:(fun () -> !phys) () in
  let remote = { Hlc.pt = 8.0; lc = 0 } in
  ignore (Hlc.observe h remote);
  phys := 4.0;
  for _ = 1 to 50 do
    let t = Hlc.now h in
    Alcotest.(check bool) "pt bounded by max seen" true
      (Float.compare t.Hlc.pt 8.0 <= 0)
  done

let test_hlc_string_round_trip () =
  List.iter
    (fun t ->
      match Hlc.of_string (Hlc.to_string t) with
      | Some t' -> Alcotest.(check ts) "round trips" t t'
      | None -> Alcotest.fail "of_string rejected its own rendering")
    [
      Hlc.zero;
      { Hlc.pt = 1.5; lc = 0 };
      { Hlc.pt = 123.456789; lc = 42 };
      (* not representable in any fixed decimal rendering: the round
         trip must still be bit-exact, or a committed-at timestamp read
         back from a commit record sorts differently than the one the
         coordinator handed out *)
      { Hlc.pt = 1.0 /. 3.0; lc = 7 };
      { Hlc.pt = 0.006095500000000001; lc = 10 };
    ];
  Alcotest.(check bool) "garbage rejected" true (Hlc.of_string "nope" = None)

(* the same deterministic message exchange replayed twice is
   bit-identical — the cluster leans on this for seeded reproducibility *)
let test_hlc_deterministic_replay () =
  let run () =
    let phys_a = ref 0.0 and phys_b = ref 0.0 in
    let a = Hlc.create ~physical:(fun () -> !phys_a) () in
    let b = Hlc.create ~physical:(fun () -> !phys_b) () in
    let out = ref [] in
    let record t = out := Hlc.to_string t :: !out in
    for i = 1 to 20 do
      phys_a := float_of_int i *. 0.25;
      (* b's clock is skewed 3s ahead and drifts *)
      phys_b := (float_of_int i *. 0.25) +. 3.0 +. (0.01 *. float_of_int i);
      let m = Hlc.now a in
      record m;
      record (Hlc.observe b m);
      let r = Hlc.now b in
      record r;
      record (Hlc.observe a r)
    done;
    List.rev !out
  in
  Alcotest.(check (list string)) "same exchange, same stamps" (run ()) (run ())

(* --- commit-log model ---

   Random lifecycles over more than 1,024 xids, so the per-xid arrays grow
   several times, checked against a Hashtbl model kept here. Commit stamps
   are read off the clock, never out of the manager. Only a transaction
   that wrote (or prepared) leaves WAL records: one that ended without
   writing is committed or aborted in memory only, unstamped, and reads
   as aborted after a crash. Numbering after a crash resumes at the xid
   floor, logged every 1,024 xids. *)

type mop =
  | M_begin
  | M_write of int
  | M_commit of int
  | M_abort of int
  | M_prepare of int
  | M_commit_prepared of int * Hlc.timestamp option
  | M_rollback_prepared of int
  | M_crash

let mop_gen =
  QCheck2.Gen.(
    let ts =
      map2
        (fun pt lc -> { Hlc.pt = float_of_int pt; lc })
        (int_range 0 2) (int_range 0 3000)
    in
    frequency
      [
        (10, return M_begin);
        (4, map (fun i -> M_write i) nat);
        (3, map (fun i -> M_commit i) nat);
        (2, map (fun i -> M_abort i) nat);
        (2, map (fun i -> M_prepare i) nat);
        (2, map2 (fun i ts -> M_commit_prepared (i, ts)) nat (option ts));
        (1, map (fun i -> M_rollback_prepared i) nat);
        (1, return M_crash);
      ])

type model = {
  clog : (int, Manager.status) Hashtbl.t;
  cts : (int, Hlc.timestamp) Hashtbl.t;
  pts : (int, Hlc.timestamp) Hashtbl.t;  (** prepare stamps: lost at a crash *)
  mutable running : int list;
  mutable wrote : int list;  (** running xids that called [note_write] *)
  mutable in_memory : int list;
      (** ended without writing: their outcome is lost at a crash *)
  mutable prepared : (string * int) list;
  mutable next : int;
  mutable floor : int;  (** no xid at or above it issued *)
  gaps : (int, int) Hashtbl.t;
      (** first -> last xid of a never-issued run skipped at a crash *)
}

type outcome = St of Manager.status | Doubt of string * int

let show_outcome = function
  | St Manager.In_progress -> "in progress"
  | St Manager.Committed -> "committed"
  | St Manager.Aborted -> "aborted"
  | Doubt (gid, _) -> "in doubt " ^ gid

let model_status md x =
  Option.value (Hashtbl.find_opt md.clog x) ~default:Manager.Aborted

let model_status_at md ~ts x =
  match model_status md x with
  | Manager.Committed -> (
    (* unstamped: the transaction wrote nothing, so it hides nothing *)
    match Hashtbl.find_opt md.cts x with
    | Some cts when Hlc.compare_ts cts ts > 0 -> St Manager.In_progress
    | _ -> St Manager.Committed)
  | Manager.In_progress -> (
    match List.find_opt (fun (_, y) -> y = x) md.prepared with
    | Some (gid, _) -> (
      match Hashtbl.find_opt md.pts x with
      | Some pts when Hlc.compare_ts pts ts > 0 -> St Manager.In_progress
      | _ -> Doubt (gid, x))
    | None -> St Manager.In_progress)
  | Manager.Aborted -> St Manager.Aborted

let check_xid m md x =
  let probes =
    [ Hlc.zero; { Hlc.pt = 0.; lc = 700 }; { Hlc.pt = 1.; lc = 0 };
      Hlc.peek (Manager.hlc m) ]
  in
  let st = Manager.status m x and want = model_status md x in
  if st <> want then
    QCheck2.Test.fail_reportf "status %d: %s, model %s" x
      (show_outcome (St st)) (show_outcome (St want));
  if Manager.commit_ts_of m x <> Hashtbl.find_opt md.cts x then
    QCheck2.Test.fail_reportf "commit_ts_of %d differs from the model" x;
  List.iter
    (fun ts ->
      let got =
        match Manager.status_at m ~ts x with
        | st -> St st
        | exception Manager.In_doubt { gid; xid } -> Doubt (gid, xid)
      in
      let want = model_status_at md ~ts x in
      if got <> want then
        QCheck2.Test.fail_reportf "status_at %s %d: %s, model %s"
          (Hlc.to_string ts) x (show_outcome got) (show_outcome want))
    probes

(* every xid issued, plus xid 0, negative xids, xids not yet issued and
   both ends of each run a crash skipped *)
let check_all m md =
  List.iter (check_xid m md) [ min_int; -1025; -1; max_int ];
  let x = ref 0 in
  while !x <= md.next + 3 do
    check_xid m md !x;
    x := match Hashtbl.find_opt md.gaps !x with
      | Some last when last > !x -> last
      | _ -> !x + 1
  done

let pick l i = List.nth l (i mod List.length l)

let apply_mop m md op =
  let hlc = Manager.hlc m in
  match op with
  | M_begin ->
    let x = Manager.begin_txn m in
    if x <> md.next then QCheck2.Test.fail_reportf "begin gave %d, not %d" x md.next;
    md.next <- x + 1;
    if x >= md.floor then md.floor <- x + 1024;
    Hashtbl.replace md.clog x Manager.In_progress;
    md.running <- x :: md.running
  | M_write i when md.running <> [] ->
    let x = pick md.running i in
    Manager.note_write m x;
    if not (List.mem x md.wrote) then md.wrote <- x :: md.wrote
  | (M_commit i | M_abort i | M_prepare i) when md.running <> [] ->
    let x = pick md.running i in
    let wrote = List.mem x md.wrote in
    md.running <- List.filter (( <> ) x) md.running;
    md.wrote <- List.filter (( <> ) x) md.wrote;
    (match op with
     | M_commit _ | M_abort _ when not wrote -> md.in_memory <- x :: md.in_memory
     | _ -> ());
    (match op with
     | M_commit _ ->
       Manager.commit m x;
       Hashtbl.replace md.clog x Manager.Committed;
       if wrote then Hashtbl.replace md.cts x (Hlc.peek hlc)
     | M_abort _ ->
       Manager.abort m x;
       Hashtbl.replace md.clog x Manager.Aborted
     | _ ->
       let gid = Printf.sprintf "g%d" x in
       Manager.prepare m x ~gid;
       md.prepared <- (gid, x) :: md.prepared;
       Hashtbl.replace md.pts x (Hlc.peek hlc))
  | (M_commit_prepared (i, _) | M_rollback_prepared i) when md.prepared <> [] ->
    let gid, x = pick md.prepared i in
    md.prepared <- List.filter (fun (g, _) -> g <> gid) md.prepared;
    Hashtbl.remove md.pts x;
    (match op with
     | M_commit_prepared (_, ts) ->
       Manager.commit_prepared ?ts m ~gid;
       Hashtbl.replace md.clog x Manager.Committed;
       Hashtbl.replace md.cts x (Option.value ts ~default:(Hlc.peek hlc))
     | _ ->
       Manager.rollback_prepared m ~gid;
       Hashtbl.replace md.clog x Manager.Aborted)
  | M_crash ->
    Manager.crash_recover m;
    (* running transactions, and those that ended without writing, vanish:
       their xids read as never recorded; numbering resumes at the floor *)
    List.iter (Hashtbl.remove md.clog) (md.running @ md.in_memory);
    md.running <- [];
    md.wrote <- [];
    md.in_memory <- [];
    if md.floor > md.next then Hashtbl.replace md.gaps md.next (md.floor - 1);
    md.next <- md.floor;
    Hashtbl.reset md.pts;
    check_all m md
  | M_write _ | M_commit _ | M_abort _ | M_prepare _ | M_commit_prepared _
  | M_rollback_prepared _ ->
    ()

let prop_clog_model =
  QCheck2.Test.make ~name:"commit log matches a Hashtbl model" ~count:12
    QCheck2.Gen.(list_size (int_range 2600 3000) mop_gen)
    (fun ops ->
      let m = Manager.create () in
      let md =
        { clog = Hashtbl.create 64; cts = Hashtbl.create 64;
          pts = Hashtbl.create 8; running = []; wrote = []; in_memory = [];
          prepared = []; next = 1; floor = 1; gaps = Hashtbl.create 8 }
      in
      List.iteri
        (fun i op ->
          apply_mop m md op;
          if i mod 256 = 0 then check_all m md)
        ops;
      check_all m md;
      md.next > 1024)

let () =
  Alcotest.run "txn"
    [
      ( "snapshots",
        [
          Alcotest.test_case "sees" `Quick test_snapshot_sees;
          Alcotest.test_case "excludes concurrent" `Quick
            test_snapshot_excludes_concurrent;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "begin/commit" `Quick test_begin_commit;
          Alcotest.test_case "abort" `Quick test_abort;
          Alcotest.test_case "unknown xid aborted" `Quick
            test_unknown_xid_is_aborted;
          Alcotest.test_case "double commit rejected" `Quick
            test_double_commit_rejected;
        ] );
      ( "locks",
        [
          Alcotest.test_case "row conflict" `Quick test_row_lock_conflict;
          Alcotest.test_case "reacquire" `Quick test_reacquire_is_noop;
          Alcotest.test_case "table modes" `Quick test_table_lock_modes;
          Alcotest.test_case "wait edges" `Quick test_wait_edges;
          Alcotest.test_case "local deadlock" `Quick test_local_deadlock_detection;
          QCheck_alcotest.to_alcotest prop_lock_index;
        ] );
      ( "wal",
        [ Alcotest.test_case "order and restore point" `Quick
            test_wal_order_and_restore_point;
          QCheck_alcotest.to_alcotest prop_wal_model;
          Alcotest.test_case "lazy commit records" `Quick
            test_lazy_commit_records ] );
      ( "hlc",
        [
          Alcotest.test_case "monotone under stalled clock" `Quick
            test_hlc_monotone_under_stalled_clock;
          Alcotest.test_case "monotone under backwards clock" `Quick
            test_hlc_monotone_under_backwards_clock;
          Alcotest.test_case "tracks physical time" `Quick
            test_hlc_tracks_physical_time;
          Alcotest.test_case "observe dominates remote" `Quick
            test_hlc_observe_dominates_remote;
          Alcotest.test_case "skew bound" `Quick test_hlc_skew_bound;
          Alcotest.test_case "string round trip" `Quick
            test_hlc_string_round_trip;
          Alcotest.test_case "deterministic replay" `Quick
            test_hlc_deterministic_replay;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "prepare then commit" `Quick
            test_prepare_commit_prepared;
          Alcotest.test_case "rollback prepared" `Quick test_rollback_prepared;
          Alcotest.test_case "missing gid" `Quick test_prepared_missing_gid;
          Alcotest.test_case "duplicate gid" `Quick test_duplicate_gid_rejected;
          Alcotest.test_case "blocks oldest xid" `Quick
            test_prepared_blocks_oldest_xid;
        ] );
      ("clog", [ QCheck_alcotest.to_alcotest prop_clog_model ]);
    ]
