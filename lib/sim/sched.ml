(* Deterministic cooperative scheduler over the virtual clock.

   Fibers are one-shot effect-handler continuations. Everything is
   single-threaded: a fiber runs until it performs a scheduling effect
   (spawn/await/sleep/yield/wait), at which point control returns to the
   run loop, which picks the next runnable fiber. The clock only advances
   when no fiber is runnable — it jumps to the earliest sleeper, firing
   [on_advance] (the fault-plan tick) so scheduled crashes and partitions
   interleave with fibers at their virtual times.

   Determinism: ready queues are per-node FIFOs visited in first-seen
   node order. Unseeded, the picker is a strict round-robin over those
   queues; with a seed, the next queue is drawn from a [Random.State]
   owned by this scheduler, so a chaos seed can fuzz interleavings while
   same-seed runs stay bit-identical. The fault plan's own RNG is never
   touched by scheduling decisions.

   Cancellation: [cancel] marks a fiber (and, transitively, its spawned
   children) cancel-requested. Delivery is cooperative and happens at
   suspension points: a suspended fiber is discontinued with {!Cancelled}
   immediately; a running one the next time it suspends. Delivery is
   one-shot — once a fiber has seen [Cancelled], its later suspension
   points behave normally, so [Fun.protect] cleanup handlers can still
   sleep, await and broadcast on the way out. A fiber that failed with
   [Cancelled] never re-raises at the end of [run] even when unawaited:
   cancellation is a demanded outcome, not a lost error. *)

type task = unit -> unit

type cond = { mutable cw : (string * task) list }

type ready = { r_node : string; r_tasks : task Queue.t }

type t = {
  clock : Clock.t;
  rng : Random.State.t option;
  on_advance : unit -> unit;
  on_suspend : node:string -> float;
      (* fault hook fired at every suspension point; returns extra
         virtual delay (a micro-stall) applied to sleeps and yields *)
  mutable queues : ready array;
      (* first-seen order in [0, nqueues); grown by doubling, so a pick
         allocates nothing *)
  mutable nqueues : int;
  mutable rr : int;  (* round-robin cursor (unseeded mode) *)
  mutable sleepers : (float * int * string * task) list;  (* sorted (wake, seq) *)
  mutable seq : int;
  mutable live : int;  (* fibers spawned and not yet finished *)
  mutable failed : (int * exn * (unit -> bool)) list;
      (* (fid, error, was-it-awaited?) — unawaited failures re-raise at
         the end of [run] instead of vanishing *)
  mutable next_fid : int;
}

exception Cancelled

exception Timed_out

type 'a fiber_state =
  | Running of (('a, exn) result -> unit) list  (* pending awaiters *)
  | Done of ('a, exn) result

type 'a fiber = {
  fid : int;
  f_node : string;
  mutable state : 'a fiber_state;
  mutable observed : bool;
  mutable cancel_requested : bool;
  mutable cancel_delivered : bool;
  mutable cancel_wake : (unit -> unit) option;
      (* installed while suspended at an interruptible point; firing it
         discontinues the fiber with [Cancelled] *)
  mutable children : packed list;
}

and packed = P : 'a fiber -> packed

type _ Effect.t +=
  | Spawn_eff : t * string * (unit -> 'a) -> 'a fiber Effect.t
  | Await_eff : t * 'a fiber * float option -> ('a, exn) result Effect.t
      (* optional absolute deadline: resolves [Error Timed_out] *)
  | Await_any_eff : t * 'a fiber list -> (int * ('a, exn) result) Effect.t
  | Sleep_eff : t * float -> unit Effect.t  (* absolute wake time *)
  | Yield_eff : t -> unit Effect.t
  | Wait_eff : t * cond -> unit Effect.t
  | Timed_wait_eff : t * cond * float -> unit Effect.t  (* absolute deadline *)

let rec find_queue t node i =
  if i < t.nqueues && not (String.equal t.queues.(i).r_node node) then
    find_queue t node (i + 1)
  else i

let enqueue t node task =
  let i = find_queue t node 0 in
  if i = t.nqueues then begin
    let r = { r_node = node; r_tasks = Queue.create () } in
    if i = Array.length t.queues then
      t.queues <- Array.append t.queues (Array.make (max 4 i) r);
    t.queues.(i) <- r;
    t.nqueues <- i + 1
  end;
  Queue.push task t.queues.(i).r_tasks

let add_sleeper t ~wake ~node task =
  let seq = t.seq in
  t.seq <- seq + 1;
  let rec insert = function
    | [] -> [ (wake, seq, node, task) ]
    | ((w, s, _, _) as hd) :: tl ->
      if wake < w || (wake = w && seq < s) then (wake, seq, node, task) :: hd :: tl
      else hd :: insert tl
  in
  t.sleepers <- insert t.sleepers

(* Move every sleeper whose wake time has come (the clock may also have
   been advanced directly, e.g. by retry backoff) onto its ready queue,
   in (wake, seq) order: they are the sorted list's prefix. *)
let rec release_due t =
  match t.sleepers with
  | (wake, _, node, task) :: rest when wake <= Clock.now t.clock ->
    t.sleepers <- rest;
    enqueue t node task;
    release_due t
  | _ -> ()

(* Picking allocates nothing: the ready queue to serve next, or [-1].
   Unseeded: the first non-empty queue from the round-robin cursor on.
   Seeded: a uniform draw over the non-empty queues, in first-seen
   order. *)
let nonempty t i = not (Queue.is_empty t.queues.(i).r_tasks)

let rec scan t i =
  if i >= t.nqueues then -1
  else
    let idx = (t.rr + i) mod t.nqueues in
    if nonempty t idx then begin
      t.rr <- (idx + 1) mod t.nqueues;
      idx
    end
    else scan t (i + 1)

let rec count t i =
  if i >= t.nqueues then 0 else Bool.to_int (nonempty t i) + count t (i + 1)

let rec nth t i k =
  if not (nonempty t i) then nth t (i + 1) k
  else if k = 0 then i
  else nth t (i + 1) (k - 1)

let pick t =
  match t.rng with
  | None -> scan t 0
  | Some rng -> (
    match count t 0 with 0 -> -1 | k -> nth t 0 (Random.State.int rng k))

let finish (type a) t (fib : a fiber) (r : (a, exn) result) =
  (match fib.state with
   | Done _ -> assert false (* fibers finish exactly once *)
   | Running waiters ->
     fib.state <- Done r;
     List.iter (fun w -> w r) (List.rev waiters));
  (match r with
   | Error Cancelled -> ()  (* a demanded cancellation is not a lost error *)
   | Error e -> t.failed <- (fib.fid, e, (fun () -> fib.observed)) :: t.failed
   | Ok _ -> ());
  t.live <- t.live - 1

(* Mark a fiber and its spawned children cancel-requested; wake any that
   are suspended at an interruptible point so the request is delivered
   promptly instead of at their next voluntary suspension. *)
let rec cancel_fiber : 'a. 'a fiber -> unit =
  fun (type a) (fib : a fiber) ->
   match fib.state with
   | Done _ -> ()
   | Running _ ->
     if not fib.cancel_requested then begin
       fib.cancel_requested <- true;
       List.iter (fun (P c) -> cancel_fiber c) fib.children;
       match fib.cancel_wake with
       | Some wake ->
         fib.cancel_wake <- None;
         wake ()
       | None -> ()
     end

(* The cancellation race at one suspension point. If a cancel is already
   pending, deliver it now (enqueue the discontinue) and return [None] —
   the caller must not install its waiters. Otherwise return [Some guard];
   every resumption path is wrapped in [guard f x]: the first to actually
   run wins, later ones degenerate to no-ops, and a [cancel] arriving
   while suspended fires the installed [cancel_wake] which discontinues
   the fiber with {!Cancelled} through the same one-shot gate. *)
let with_cancel t (fib : _ fiber) ~discontinue =
  if fib.cancel_requested && not fib.cancel_delivered then begin
    fib.cancel_delivered <- true;
    enqueue t fib.f_node (fun () -> discontinue Cancelled);
    None
  end
  else begin
    let fired = ref false in
    fib.cancel_wake <-
      Some
        (fun () ->
          enqueue t fib.f_node (fun () ->
              if not !fired then begin
                fired := true;
                fib.cancel_wake <- None;
                fib.cancel_delivered <- true;
                discontinue Cancelled
              end));
    Some
      (fun f x ->
        if not !fired then begin
          fired := true;
          fib.cancel_wake <- None;
          f x
        end)
  end

let rec spawn_fiber : 'a. t -> string -> (unit -> 'a) -> 'a fiber =
  fun (type a) t node (f : unit -> a) : a fiber ->
   let fib =
     {
       fid = t.next_fid;
       f_node = node;
       state = Running [];
       observed = false;
       cancel_requested = false;
       cancel_delivered = false;
       cancel_wake = None;
       children = [];
     }
   in
   t.next_fid <- t.next_fid + 1;
   t.live <- t.live + 1;
   enqueue t node (fun () ->
       (* cancelled before its first slice: never runs, so a hedged
          loser that lost before starting has no side effects at all *)
       if fib.cancel_requested then begin
         fib.cancel_delivered <- true;
         finish t fib (Error Cancelled)
       end
       else exec_fiber t fib f);
   fib

and exec_fiber : 'a. t -> 'a fiber -> (unit -> 'a) -> unit =
  fun (type a) t (fib : a fiber) (f : unit -> a) ->
   Effect.Deep.match_with f ()
     {
       retc = (fun v -> finish t fib (Ok v));
       exnc = (fun e -> finish t fib (Error e));
       effc =
         (fun (type b) (eff : b Effect.t) ->
           match eff with
           | Yield_eff s when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 let extra = t.on_suspend ~node:fib.f_node in
                 match
                   with_cancel t fib ~discontinue:(fun e ->
                       Effect.Deep.discontinue k e)
                 with
                 | None -> ()
                 | Some guard ->
                   let resume () = guard (Effect.Deep.continue k) () in
                   if extra > 0.0 then
                     add_sleeper t
                       ~wake:(Clock.now t.clock +. extra)
                       ~node:fib.f_node resume
                   else enqueue t fib.f_node resume)
           | Sleep_eff (s, wake) when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 let extra = t.on_suspend ~node:fib.f_node in
                 match
                   with_cancel t fib ~discontinue:(fun e ->
                       Effect.Deep.discontinue k e)
                 with
                 | None -> ()
                 | Some guard ->
                   add_sleeper t ~wake:(wake +. extra) ~node:fib.f_node
                     (fun () -> guard (Effect.Deep.continue k) ()))
           | Wait_eff (s, c) when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 ignore (t.on_suspend ~node:fib.f_node : float);
                 match
                   with_cancel t fib ~discontinue:(fun e ->
                       Effect.Deep.discontinue k e)
                 with
                 | None -> ()
                 | Some guard ->
                   c.cw <-
                     c.cw
                     @ [ (fib.f_node, fun () -> guard (Effect.Deep.continue k) ()) ])
           | Timed_wait_eff (s, c, until) when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 (* race a broadcast against the deadline: whichever fires
                    first resumes the fiber; the loser degenerates to a
                    no-op (a stale sleeper entry is released and dropped,
                    a stale waiter entry is drained by a later broadcast) *)
                 ignore (t.on_suspend ~node:fib.f_node : float);
                 match
                   with_cancel t fib ~discontinue:(fun e ->
                       Effect.Deep.discontinue k e)
                 with
                 | None -> ()
                 | Some guard ->
                   let resume () = guard (Effect.Deep.continue k) () in
                   c.cw <- c.cw @ [ (fib.f_node, resume) ];
                   add_sleeper t ~wake:until ~node:fib.f_node resume)
           | Await_eff (s, target, deadline) when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 ignore (t.on_suspend ~node:fib.f_node : float);
                 target.observed <- true;
                 match
                   with_cancel t fib ~discontinue:(fun e ->
                       Effect.Deep.discontinue k e)
                 with
                 | None -> ()
                 | Some guard ->
                   let resume r =
                     enqueue t fib.f_node (fun () ->
                         guard (Effect.Deep.continue k) r)
                   in
                   (match target.state with
                    | Done r -> resume r
                    | Running ws -> target.state <- Running (resume :: ws));
                   (match deadline with
                    | None -> ()
                    | Some dl ->
                      add_sleeper t ~wake:dl ~node:fib.f_node (fun () ->
                          guard (Effect.Deep.continue k) (Error Timed_out))))
           | Await_any_eff (s, targets) when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 ignore (t.on_suspend ~node:fib.f_node : float);
                 List.iter (fun f -> f.observed <- true) targets;
                 match
                   with_cancel t fib ~discontinue:(fun e ->
                       Effect.Deep.discontinue k e)
                 with
                 | None -> ()
                 | Some guard ->
                   let resume i r =
                     enqueue t fib.f_node (fun () ->
                         guard (Effect.Deep.continue k) (i, r))
                   in
                   let rec first i = function
                     | [] -> None
                     | f :: tl ->
                       (match f.state with
                        | Done r -> Some (i, r)
                        | Running _ -> first (i + 1) tl)
                   in
                   (match first 0 targets with
                    | Some (i, r) -> resume i r
                    | None ->
                      List.iteri
                        (fun i f ->
                          match f.state with
                          | Done _ -> assert false
                          | Running ws ->
                            f.state <- Running ((fun r -> resume i r) :: ws))
                        targets))
           | Spawn_eff (s, node, g) when s == t ->
             Some
               (fun (k : (b, unit) Effect.Deep.continuation) ->
                 let child = spawn_fiber t node g in
                 fib.children <- P child :: fib.children;
                 (* a parent already marked for cancellation (but still
                    pre-delivery) must not spawn uncancellable work;
                    post-delivery spawns are cleanup and run freely *)
                 if fib.cancel_requested && not fib.cancel_delivered then
                   cancel_fiber child;
                 Effect.Deep.continue k child)
           | _ -> None (* foreign effect (e.g. a nested scheduler): forward *));
     }

let drive t =
  let rec loop () =
    release_due t;
    match pick t with
    | -1 ->
      if t.live > 0 then begin
        match t.sleepers with
        | [] ->
          failwith
            "Sim.Sched: stuck — live fibers but no runnable task and no \
             sleeper (await cycle, or a cond nobody broadcasts)"
        | (wake, _, _, _) :: _ ->
          let now = Clock.now t.clock in
          if wake > now then Clock.advance t.clock (wake -. now);
          t.on_advance ();
          loop ()
      end
    | i ->
      Queue.pop t.queues.(i).r_tasks ();
      loop ()
  in
  loop ()

let run ?seed ?(on_advance = fun () -> ()) ?(on_suspend = fun ~node:_ -> 0.0)
    ~clock f =
  let t =
    {
      clock;
      rng = Option.map (fun s -> Random.State.make [| s; 0x5c4ed |]) seed;
      on_advance;
      on_suspend;
      queues = [||];
      nqueues = 0;
      rr = 0;
      sleepers = [];
      seq = 0;
      live = 0;
      failed = [];
      next_fid = 1;
    }
  in
  let main = spawn_fiber t "main" (fun () -> f t) in
  main.observed <- true;
  drive t;
  let result =
    match main.state with
    | Done r -> r
    | Running _ -> assert false (* drive returns only when live = 0 *)
  in
  match result with
  | Error e -> raise e
  | Ok v -> (
    (* a failed fiber nobody awaited must not vanish silently *)
    let unobserved = List.filter (fun (_, _, obs) -> not (obs ())) t.failed in
    match
      List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) unobserved
    with
    | (_, e, _) :: _ -> raise e
    | [] -> v)

let spawn t ?(node = "main") f = Effect.perform (Spawn_eff (t, node, f))

let await_result t ?deadline fib =
  Effect.perform (Await_eff (t, fib, deadline))

let await t ?deadline fib =
  match await_result t ?deadline fib with Ok v -> v | Error e -> raise e

let await_any t fibs =
  if fibs = [] then invalid_arg "Sim.Sched.await_any: empty fiber list";
  Effect.perform (Await_any_eff (t, fibs))

let join_all t fibs =
  let results = List.map (fun fib -> await_result t fib) fibs in
  List.map (function Ok v -> v | Error e -> raise e) results

let cancel _t fib = cancel_fiber fib

let yield t = Effect.perform (Yield_eff t)

let now t = Clock.now t.clock

let sleep_until t wake = Effect.perform (Sleep_eff (t, wake))

let sleep t d = if d > 0.0 then sleep_until t (Clock.now t.clock +. d)

let make_cond () = { cw = [] }

let wait t c = Effect.perform (Wait_eff (t, c))

let timed_wait t c ~until = Effect.perform (Timed_wait_eff (t, c, until))

let broadcast t c =
  let ws = c.cw in
  c.cw <- [];
  List.iter (fun (node, task) -> enqueue t node task) ws
