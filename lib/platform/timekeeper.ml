let resolution_us = 100

(* An SPI read of an external persistent timer: ~20 cycles. *)
let read_cost = 20

let read m =
  Machine.cpu m read_cost;
  Machine.clock m / resolution_us * resolution_us

let elapsed_since m t0 = max 0 (read m - t0)
