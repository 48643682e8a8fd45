(** Low Energy Accelerator (vector math coprocessor).

    The MSP430FR5994's LEA executes vector operations over a dedicated
    4 KB window of SRAM ("LEA-RAM") while the CPU sleeps. Operands must
    live in volatile LEA-RAM, which is why the paper's FIR and DNN
    workloads DMA-stage data from FRAM into LEA-RAM, compute, and stage
    results back — the pattern that creates Private-DMA cases.

    All operands are Q15-style integers; products are scaled by
    [>> shift] to stay in range.

    {!vector_mac} and {!fir} compute each sum of products with
    {!Platform.Memory.dot}, which checks each operand range once; the
    memory's read and write counters advance exactly as per-word
    accesses would, and the charges are those of one command. *)

open Platform

val alloc_leram : Machine.t -> name:string -> words:int -> int
(** Allocate from the LEA-RAM window (a reserved SRAM region). *)

val vector_mac : ?shift:int -> Machine.t -> a:int -> b:int -> len:int -> int
(** [vector_mac m ~a ~b ~len] computes [sum (a.(i) * b.(i)) >> shift]
    over SRAM addresses; charges setup + per-element costs and bumps
    ["io:LEA"]. *)

val fir : ?shift:int -> Machine.t -> input:int -> coeffs:int -> taps:int -> output:int -> samples:int -> unit
(** Finite-impulse-response block: [output.(i) = sum_j input.(i+j) *
    coeffs.(j) >> shift] for [i < samples]. All addresses in SRAM; the
    input window must hold [samples + taps - 1] words. One LEA command
    (single setup, per-MAC element cost), one ["io:LEA"] bump. *)

val vector_max : Machine.t -> a:int -> len:int -> int
(** Index of the maximum element (argmax); used by inference layers. *)
