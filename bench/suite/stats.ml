(* Wall clock and order statistics. *)

(* Monotonic nanoseconds; the external is noalloc and unboxed, so reading
   the clock allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable unboxed sample buffer. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 256 0.0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let count b = b.n

let sorted_array a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let sorted b = sorted_array (Array.sub b.a 0 b.n)

(* Nearest-rank percentile of a sorted array; nan when empty. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) rank))

let median_of_sorted s =
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let median l = median_of_sorted (sorted_array (Array.of_list l))

let buf_median b = median_of_sorted (sorted b)

(* The [p] percentile of a sample in arrival order, as the median over
   consecutive equal windows of the per-window percentile; as many
   windows (up to 10) as keep at least 50 samples beyond the percentile
   in each, so each window's estimate is itself steady. A stall confined
   to one stretch of the run moves one window, not the result. *)
let windowed_percentile b p =
  let n = b.n in
  let w = max 1 (min 10 (int_of_float (float_of_int n *. (1.0 -. p)) / 50)) in
  let per = n / w in
  median
    (List.init w (fun k -> percentile (sorted_array (Array.sub b.a (k * per) per)) p))

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes them
   (the "exclusive" method), so spreads printed here match the ones an
   outside checker derives from the same values; one value is its own
   quartiles. *)
let quartiles l =
  let d = sorted_array (Array.of_list l) in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
