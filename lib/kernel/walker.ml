open Platform

let observed (e : Trace.Event.t) =
  match e.payload with
  | Trace.Event.Task_commit _ | Trace.Event.Task_abort _ | Trace.Event.Io _ | Trace.Event.Boot _
  | Trace.Event.Power_failure _ ->
      true
  | _ -> false

type tape = { mutable rev : Trace.Event.t list; mutable len : int }

let tape () =
  let t = { rev = []; len = 0 } in
  ( t,
    fun e ->
      if observed e then begin
        t.rev <- e :: t.rev;
        t.len <- t.len + 1
      end )

(* One attempt top: the engine checkpoint, the caller's payload, the
   clock and, on a taped walk, how far the tape and the metrics sheet
   had got. *)
type mark = {
  ck : Engine.checkpoint;
  payload : unit -> unit;
  top_us : int;
  cursor : int;
  sheet : Obs.Sheet.t option;
}

(* The machine where a power failure at one or more boundaries of a
   batch takes it down, with what the run had handed its observers by
   then: [seen] events of the batch's segment and the batch's sheet. *)
type capture = {
  snap : Machine.snapshot;
  pos : Engine.position;
  extras : unit -> unit;
  seen : int;
  meter : Obs.Sheet.t option;
}

(* Captures taken while one attempt runs forward from its top: the
   boundaries not yet placed, in ascending order, each with the capture
   it is placed from (one capture may place several). *)
type batch = {
  top : int;  (* the mark of the attempt *)
  mutable pending : (int * capture) list;
  segment : Trace.Event.t array;  (* observed events emitted from the top on *)
}

type t = {
  session : Engine.session;
  marks : mark array;
  events : Trace.Event.t array;  (* the tape *)
  last : int;  (* the paced run's final charge count *)
  traced : bool;
  metered : bool;
  save : unit -> unit -> unit;
  restart : unit -> unit;
  mutable at : int;  (* forward-only mark cursor *)
  mutable placed : int;  (* the last boundary placed *)
  mutable batch : batch option;
}

(* A batch holds at most this many captures. Captures live until their
   boundary is placed, and a long-lived batch outlives minor collections
   and has its captures promoted; a short one costs a re-simulation from
   the attempt top every few boundaries. *)
let batch_size = 32

let c_pages_copied = Obs.Registry.counter "snapshot/pages_copied"

let pace ?tape ?(restart = ignore) ~save s =
  let m = Engine.machine s in
  let marks = ref [] in
  let on_attempt s =
    let payload = save () and top_us = Machine.now m in
    let ck = Engine.checkpoint s and meter = Machine.meter m in
    let mark =
      match tape with
      | None ->
          let pages = Engine.checkpoint_pages_copied ck in
          Option.iter (fun sheet -> Obs.Sheet.add sheet c_pages_copied pages) meter;
          { ck; payload; top_us; cursor = 0; sheet = None }
      | Some t -> { ck; payload; top_us; cursor = t.len; sheet = Option.map Obs.Sheet.copy meter }
    in
    marks := mark :: !marks
  in
  let traced = Machine.traced m and metered = Machine.metered m in
  let o = Engine.drive ~on_attempt s in
  let events = match tape with None -> [||] | Some t -> Array.of_list (List.rev t.rev) in
  ( o,
    {
      session = s;
      marks = Array.of_list (List.rev !marks);
      events;
      last = Machine.charges m;
      traced;
      metered;
      save;
      restart;
      at = 0;
      placed = 0;
      batch = None;
    } )

let charges w i = Engine.checkpoint_charges w.marks.(i).ck
let first_charges w = charges w 0

(* Run the attempt that boundary [k] falls in forward from its top once,
   failing it at [k], [k + stride], ... up to the attempt's last charge
   (at most [batch_size] of them; [stride] is the gap from the boundary
   placed before [k], the spacing a sweep places its boundaries at):
   the machine's interceptor captures each failure and lets the run go
   on, re-armed at the next boundary, until the last one takes the
   machine down. A failure deferred to the end of the commit sequence
   is captured there once, for every boundary inside the sequence. The
   segment is observed as a re-simulation from the top would be: its
   observed events recorded, its metering added to a copy of the top's
   sheet (a fresh one on an untaped walk). *)
let forward w ~stride k =
  let m = Engine.machine w.session in
  while w.at + 1 < Array.length w.marks && charges w (w.at + 1) < k do
    w.at <- w.at + 1
  done;
  let top = w.marks.(w.at) in
  let attempt_end = if w.at + 1 < Array.length w.marks then charges w (w.at + 1) else w.last in
  let n = Int.min batch_size (1 + ((attempt_end - k) / stride)) in
  (* the batch's last boundary, and the next one to capture *)
  let last = k + ((n - 1) * stride) and next = ref k and pending = ref [] in
  let segment = ref [] and seen = ref 0 in
  let meter =
    match top.sheet with
    | Some sheet -> Some (Obs.Sheet.copy sheet)
    | None -> if w.metered then Some (Obs.Sheet.create ()) else None
  in
  let sink = Machine.sink m and caller_meter = Machine.meter m in
  (* observers first: the engine re-latches them on restore *)
  if w.traced then
    Machine.set_sink m (fun e ->
        if observed e then begin
          segment := e :: !segment;
          incr seen
        end)
  else Machine.clear_sink m;
  (match meter with Some sheet -> Machine.set_meter m sheet | None -> Machine.clear_meter m);
  Engine.restore w.session top.ck;
  top.payload ();
  w.restart ();
  Machine.set_failure m (Failure.Nth_charge k);
  Machine.intercept m
    (Some
       (fun () ->
         let snap = Machine.snapshot m in
         let c =
           {
             snap;
             pos = Engine.position w.session;
             extras = w.save ();
             seen = !seen;
             meter = Option.map Obs.Sheet.copy meter;
           }
         in
         while !next <= last && !next <= Machine.charges m do
           pending := (!next, c) :: !pending;
           next := !next + stride
         done;
         !next <= last && (Machine.set_failure m (Failure.Nth_charge !next); true)));
  ignore (Engine.run_until_boundary w.session : Engine.step);
  Machine.intercept m None;
  (* the pass replays the paced run, so it reaches every boundary *)
  if !next <= last then failwith "Walker: a forward pass diverged from its paced run";
  (match sink with Some sink -> Machine.set_sink m sink | None -> Machine.clear_sink m);
  (match caller_meter with Some sheet -> Machine.set_meter m sheet | None -> Machine.clear_meter m);
  { top = w.at; pending = List.rev !pending; segment = Array.of_list (List.rev !segment) }

(* The capture that places boundary [k], if the batch holds it; the
   boundaries before [k] are dropped. *)
let take b k =
  let rec drop = function (k', _) :: rest when k' < k -> drop rest | l -> l in
  match drop b.pending with
  | (k', c) :: rest when k' = k ->
      b.pending <- rest;
      Some c
  | rest ->
      b.pending <- rest;
      None

let fail ?sink w k =
  let behind = Int.max w.placed (first_charges w) in
  if k <= behind || k > w.last then
    invalid_arg
      (Printf.sprintf "Walker.fail: boundary %d is not ahead of %d within the run's %d charges" k
         behind w.last);
  w.placed <- k;
  let b, c =
    match Option.bind w.batch (fun b -> Option.map (fun c -> (b, c)) (take b k)) with
    | Some bc -> bc
    | None ->
        let b = forward w ~stride:(k - behind) k in
        w.batch <- Some b;
        (b, Option.get (take b k))
  in
  let top = w.marks.(b.top) and m = Engine.machine w.session in
  (* hand the observers what a re-simulation from the top would have:
     with [sink], the tape up to the top first and a copy of the sheet
     there as the meter *)
  Option.iter
    (fun sink ->
      for i = 0 to top.cursor - 1 do
        sink w.events.(i)
      done;
      Machine.set_sink m sink)
    sink;
  Option.iter
    (fun sink ->
      for i = 0 to c.seen - 1 do
        sink b.segment.(i)
      done)
    (Machine.sink m);
  (match (sink, top.sheet, c.meter) with
  | Some _, Some _, Some sheet -> Machine.set_meter m (Obs.Sheet.copy sheet)
  | _, _, Some sheet ->
      Option.iter
        (fun into ->
          Obs.Sheet.add_sheet into sheet;
          Option.iter (Obs.Sheet.sub_sheet into) top.sheet)
        (Machine.meter m)
  | _, _, None -> ());
  Machine.restore_snapshot ~failure:(Failure.Nth_charge k) m c.snap;
  c.extras ();
  Engine.fail w.session ~top:top.ck c.pos

let top_us w =
  match w.batch with
  | Some b -> w.marks.(b.top).top_us
  | None -> invalid_arg "Walker.top_us: no boundary placed yet"
