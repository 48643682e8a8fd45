type plan = { drop_sends : int list; glitch_reads : int list; interrupt_dmas : int list }

let none = { drop_sends = []; glitch_reads = []; interrupt_dmas = [] }

type t = {
  plan : plan;
  mutable sends : int;
  mutable reads : int;
  mutable dmas : int;
}

let create plan = { plan; sends = 0; reads = 0; dmas = 0 }
let plan t = t.plan
let save t = (t.sends, t.reads, t.dmas)

let load t (sends, reads, dmas) =
  t.sends <- sends;
  t.reads <- reads;
  t.dmas <- dmas

(* Counters are cumulative over the whole run (they do NOT reset on
   reboot): a re-executed transmit is a new attempt, so "drop send #2"
   means the second transmission the radio ever starts, retries and
   re-executions included. That keeps plans meaningful under power
   failures and lets retry tests drop k consecutive attempts with
   [1; 2; ...; k]. *)

let next_send t =
  t.sends <- t.sends + 1;
  (t.sends, List.mem t.sends t.plan.drop_sends)

let next_read t =
  t.reads <- t.reads + 1;
  (t.reads, List.mem t.reads t.plan.glitch_reads)

let next_dma t =
  t.dmas <- t.dmas + 1;
  (t.dmas, List.mem t.dmas t.plan.interrupt_dmas)
