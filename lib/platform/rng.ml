type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

(* Inlined so that callers keep the int64s unboxed: [hash2] allocates
   nothing. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let create seed = { state = Int64.of_int seed }
let reseed t seed = t.state <- Int64.of_int seed
let state t = t.state
let set_state t s = t.state <- s
let split t = { state = next t }

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.)

let bool t = Int64.logand (next t) 1L = 1L

let hash2 a b =
  let z = Int64.add (Int64.mul (Int64.of_int a) golden) (Int64.of_int b) in
  Int64.to_int (Int64.shift_right_logical (mix z) 2)
