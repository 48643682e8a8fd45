(* The serve workload's request-class sequence, derived from the
   workload seed.

   Requests come in blocks of [block]; each block holds exactly
   [share] percent of each class, in a seeded shuffle. Any whole number
   of blocks therefore has the exact shares, and the load generator
   only stops at a block boundary. Hits are the fastest class and cold
   cells the slowest, so with 75/20/5 the p50 falls 25 points inside
   the hit class and the p99 four points inside the cold-cell class. *)

type cls = Hit | Cold_run | Cold_cell

let block = 100
let share = function Hit -> 75 | Cold_run -> 20 | Cold_cell -> 5
let all = [ Hit; Cold_run; Cold_cell ]
let name = function Hit -> "hit" | Cold_run -> "cold_run" | Cold_cell -> "cold_cell"

let classes ~seed ~blocks =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  Array.concat
    (List.init blocks (fun _ ->
         let a = Array.concat (List.map (fun c -> Array.make (share c) c) all) in
         for i = block - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = a.(i) in
           a.(i) <- a.(j);
           a.(j) <- t
         done;
         a))

let count cls a = Array.fold_left (fun n c -> if c = cls then n + 1 else n) 0 a
