(* Host calibration. The benchmark runs on shared virtual machines whose
   speed changes by up to 1.7x for seconds or minutes at a time, as
   neighbours load the shared cores. Every op then slows by about as
   much as a fixed kernel owned by the benchmark, timed between ops (see
   README.md for the fit). So each run times the kernel throughout and
   scales each duration behind a wall-clock metric by [reference_ns]
   over the kernel's median time around it: the metrics read as time on
   a quiet host, where the kernel takes [reference_ns].

   The kernel does the kinds of work the engine does (string hashing,
   probing with string compares, a balanced-tree descent, a small sort)
   on data built once, so its working set stays in the private caches.
   It allocates nothing, so the program's garbage collector never runs
   inside it. *)

(* About the kernel's median inside a run on a quiet 2-core development
   VM, so that there the scaled metrics read close to the raw ones. *)
let reference_ns = 1_000_000.0

(* Kernel runs per sample. *)
let reps = 3

(* A timed phase takes a sample before an op once this long has passed
   since the last one. *)
let period_ns = 200_000_000

module Smap = Map.Make (String)

let keys = Array.init 2000 (fun i -> Printf.sprintf "key%d" (i * 7919 mod 10007))

let mask = 4095

let table =
  let t = Array.make (mask + 1) "" in
  Array.iter
    (fun k ->
      let i = ref (Hashtbl.hash k land mask) in
      while t.(!i) <> "" do
        i := (!i + 1) land mask
      done;
      t.(!i) <- k)
    keys;
  t

let tree = Array.fold_left (fun m k -> Smap.add k () m) Smap.empty keys

let ints = Array.init 2000 (fun i -> i * 7919 mod 2003)

let scratch = Array.make (Array.length ints) 0

let kernel () =
  let s = ref 0 in
  for pass = 0 to 1 do
    for n = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys n in
      let i = ref (Hashtbl.hash k land mask) in
      while not (String.equal (Array.unsafe_get table !i) k) do
        i := (!i + 1) land mask
      done;
      s := !s + !i + pass;
      if Smap.mem k tree then incr s
    done
  done;
  (* Shell sort, in place: [Array.sort] allocates *)
  let n = Array.length ints in
  Array.blit ints 0 scratch 0 n;
  let gap = ref (n / 2) in
  while !gap > 0 do
    for i = !gap to n - 1 do
      let x = scratch.(i) in
      let j = ref i in
      while !j >= !gap && scratch.(!j - !gap) > x do
        scratch.(!j) <- scratch.(!j - !gap);
        j := !j - !gap
      done;
      scratch.(!j) <- x
    done;
    gap := !gap / 2
  done;
  !s + scratch.(0)

(* The kernel samples of one phase, in arrays made up front: sampling
   allocates nothing, so the count window's GC counts stay exact. *)
type t = {
  mutable at : int array;  (** when each sample began, monotonic ns *)
  mutable times : int array;  (** [reps] kernel times per sample, ns *)
  mutable n : int;  (** samples taken *)
}

(* Room for 200 s of samples; a longer phase grows the arrays. *)
let capacity = 1000

let create () =
  { at = Array.make capacity 0; times = Array.make (capacity * reps) 0; n = 0 }

let sample h =
  if h.n = Array.length h.at then begin
    h.at <- Array.append h.at h.at;
    h.times <- Array.append h.times h.times
  end;
  h.at.(h.n) <- Stats.now_ns ();
  for r = 0 to reps - 1 do
    let t0 = Stats.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    h.times.((h.n * reps) + r) <- Stats.now_ns () - t0
  done;
  h.n <- h.n + 1

let median_ns times lo len =
  Stats.median_of_sorted (Stats.sorted_array (Array.map float_of_int (Array.sub times lo len)))

(* One factor for the whole phase: [reference_ns] over the median of
   every kernel time. *)
let factor h = reference_ns /. median_ns h.times 0 (h.n * reps)

(* The factor at monotonic time [t]: [reference_ns] over the median
   kernel time of the two samples before [t] and the two after it, about
   0.8 s centred on [t]. Host load comes in bursts of a few hundred ms
   to seconds, and the ops of a burst fill the tails: over sets of ten
   tpcc_delegated runs, the write tail spread 0.16-0.19 with one factor
   per run and 0.04-0.06 with a factor this local (see README.md). *)
let factor_at h =
  let m = h.n in
  let gap_factor =
    Array.init m (fun j ->
        let lo = max 0 (j - 1) and hi = min (m - 1) (j + 2) in
        reference_ns /. median_ns h.times (lo * reps) ((hi - lo + 1) * reps))
  in
  fun t ->
    (* the last sample at or before [t] *)
    let rec find lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if float_of_int h.at.(mid) <= t then find mid hi else find lo mid
    in
    gap_factor.(find 0 m)
