(* Sample buffers and percentiles that carry their sample counts.

   Percentiles are nearest-rank over the sorted samples. A percentile
   may be reported only when at least [min_beyond] samples lie strictly
   above its rank: a p99 read off fewer than ten tail points is one
   unlucky sample, not a tail. *)

let min_beyond = 10

(* {1 Growable float buffer} *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* {1 Percentiles} *)

type pct = { p : float; value : float; n : int; beyond : int }

(* 0-based nearest-rank index of percentile [p] among [n] samples. *)
let rank ~n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Error (Printf.sprintf "p%g: no samples" p)
  else
    let i = rank ~n p in
    let beyond = n - 1 - i in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%g: %d samples beyond it out of %d (need %d)" p beyond n min_beyond)
    else Ok { p; value = sorted.(i); n; beyond }

(* Median of a small set of repeated measurements (set-up times, per
   pass job times). Not a reported percentile, so no tail guard; the
   caller prints the count next to it. *)
let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
