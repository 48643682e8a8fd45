(** Peripheral fault-injection plans.

    A {!plan} names, by 1-based occurrence index, which peripheral
    operations of a run misbehave: radio transmissions that are dropped
    in flight, sensor reads that return glitched values, DMA transfers
    interrupted mid-copy. The machine carries one mutable occurrence
    counter per class ({!t}); peripherals ask it whether their next
    operation is faulted. Indices count {e every} attempt — including
    retries and post-failure re-executions — so plans stay deterministic
    under power failures. *)

type plan = {
  drop_sends : int list;  (** radio transmissions lost after full TX cost *)
  glitch_reads : int list;  (** sensor samples returning corrupted values *)
  interrupt_dmas : int list;  (** DMA copies killed mid-transfer *)
}

val none : plan

type t
(** Per-run mutable counters over a plan. *)

val create : plan -> t

val plan : t -> plan

val save : t -> int * int * int
(** The three cumulative occurrence counters — machine snapshots
    capture them so a restored run faults the same occurrences. *)

val load : t -> int * int * int -> unit
(** Restore counters captured by {!save}. *)

val next_send : t -> int * bool
(** Advance the send counter; returns (occurrence index, faulted?). *)

val next_read : t -> int * bool
val next_dma : t -> int * bool
