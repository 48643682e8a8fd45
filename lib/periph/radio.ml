open Platform

exception Tx_dropped of int

type t = {
  m : Machine.t;
  log_cap : int option;
  mutable log : (Units.time_us * int array) list;  (* newest first *)
  mutable log_len : int;
  mutable sent : int;
}

let create ?log_cap m =
  (match log_cap with
  | Some c when c <= 0 -> invalid_arg "Radio.create: log_cap must be positive"
  | _ -> ());
  { m; log_cap; log = []; log_len = 0; sent = 0 }

let reset t =
  t.log <- [];
  t.log_len <- 0;
  t.sent <- 0

(* O(1) capture/restore: the log is built of immutable conses over
   payload arrays that are copied at push time and never mutated, so
   sharing the spine with a snapshot is safe. *)
type snapshot = {
  sn_log : (Units.time_us * int array) list;
  sn_log_len : int;
  sn_sent : int;
}

let snapshot t = { sn_log = t.log; sn_log_len = t.log_len; sn_sent = t.sent }

let same a b =
  a.sn_sent = b.sn_sent
  && a.sn_log_len = b.sn_log_len
  && (a.sn_log == b.sn_log || a.sn_log = b.sn_log)

let restore t sn =
  t.log <- sn.sn_log;
  t.log_len <- sn.sn_log_len;
  t.sent <- sn.sn_sent

let ev_send = Machine.event_id "io:Send"

let preamble_us = 2_000
let preamble_pj = 4_000_000
let word_us = 40
let word_pj = 60_000

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let push_log t entry =
  t.log <- entry :: t.log;
  t.log_len <- t.log_len + 1;
  match t.log_cap with
  | Some cap when t.log_len > cap ->
      (* O(cap) truncation per overflowing push keeps retention bounded
         for long campaigns without touching the hot uncapped path. *)
      t.log <- take cap t.log;
      t.log_len <- cap
  | _ -> ()

let transmit t payload =
  let n = Array.length payload in
  Machine.bump_id t.m ev_send;
  if Machine.traced t.m then Machine.emit t.m (Trace.Event.Radio_send { words = n });
  (* The occurrence index is drawn when the transmission starts, so
     attempts cut short by power failures still advance the fault plan. *)
  let index, dropped = Faults.next_send (Machine.faults t.m) in
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
  if dropped then begin
    (* full TX cost paid, packet lost in flight *)
    if Machine.traced t.m then
      Machine.emit t.m (Trace.Event.Fault { kind = "radio-drop"; index });
    raise (Tx_dropped index)
  end;
  t.sent <- t.sent + 1;
  push_log t (Machine.now t.m, Array.copy payload)

let send t payload = transmit t payload

let send_from t ~(src : Loc.t) ~words =
  let payload = Array.init words (fun i -> Machine.read t.m src.space (src.addr + i)) in
  transmit t payload

let log t = List.rev t.log
let packets_sent t = t.sent
