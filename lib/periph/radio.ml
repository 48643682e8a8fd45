open Platform

type t = {
  m : Machine.t;
  mutable log : (Units.time_us * int array) list;  (* newest first *)
  mutable sent : int;
}

let create m = { m; log = []; sent = 0 }

let reset t =
  t.log <- [];
  t.sent <- 0

(* O(1) capture/restore: the log is built of immutable conses over
   payload arrays that are copied at push time and never mutated, so
   sharing the spine with a snapshot is safe. *)
type snapshot = { sn_log : (Units.time_us * int array) list; sn_sent : int }

let snapshot t = { sn_log = t.log; sn_sent = t.sent }

let restore t sn =
  t.log <- sn.sn_log;
  t.sent <- sn.sn_sent

let ev_send = Machine.event_id "io:Send"

let preamble_us = 2_000
let preamble_pj = 4_000_000
let word_us = 40
let word_pj = 60_000

let send t payload =
  let n = Array.length payload in
  Machine.bump_id t.m ev_send;
  if Machine.traced t.m then Machine.emit t.m (Trace.Event.Radio_send { words = n });
  Machine.charge t.m ~us:preamble_us ~pj:preamble_pj;
  (* charge per-word in slices so failures can interrupt a long packet;
     the packet is logged only if the whole transmission completes. *)
  let rec go i =
    if i < n then begin
      let k = min 8 (n - i) in
      Machine.charge t.m ~us:(word_us * k) ~pj:(word_pj * k);
      go (i + k)
    end
  in
  go 0;
  t.sent <- t.sent + 1;
  t.log <- (Machine.now t.m, Array.copy payload) :: t.log

let send_from t ~(src : Loc.t) ~words =
  send t (Array.init words (fun i -> Machine.read t.m src.space (src.addr + i)))

let log t = List.rev t.log
let packets_sent t = t.sent
