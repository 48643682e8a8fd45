open Platform

type tape = { mutable rev : Trace.Event.t list; mutable len : int }

let tape () =
  let t = { rev = []; len = 0 } in
  ( t,
    fun e ->
      t.rev <- e :: t.rev;
      t.len <- t.len + 1 )

(* One attempt top: the engine checkpoint, the caller's payload and, on
   a taped walk, how far the tape and the metrics sheet had got. *)
type 'a mark = { ck : Engine.checkpoint; payload : 'a; cursor : int; sheet : Obs.Sheet.t option }

type 'a t = {
  session : Engine.session;
  marks : 'a mark array;
  events : Trace.Event.t array;
  mutable at : int;
}

let pace ?tape ~save s =
  let m = Engine.machine s in
  let marks = ref [] in
  let on_attempt s =
    let payload = save () in
    let mark =
      match tape with
      | None -> { ck = Engine.checkpoint s; payload; cursor = 0; sheet = None }
      | Some t ->
          let meter = Machine.meter m in
          let sheet = Option.map Obs.Sheet.copy meter in
          Machine.clear_meter m;
          let ck = Engine.checkpoint s in
          Option.iter (Machine.set_meter m) meter;
          { ck; payload; cursor = t.len; sheet }
    in
    marks := mark :: !marks
  in
  let o = Engine.drive ~on_attempt s in
  let events = match tape with None -> [||] | Some t -> Array.of_list (List.rev t.rev) in
  (o, { session = s; marks = Array.of_list (List.rev !marks); events; at = 0 })

let charges w i = Engine.checkpoint_charges w.marks.(i).ck
let first_charges w = charges w 0

let seek ?sink w k =
  if charges w w.at >= k then
    invalid_arg
      (Printf.sprintf "Walker.seek: no checkpoint ahead of the cursor before charge %d" k);
  while w.at + 1 < Array.length w.marks && charges w (w.at + 1) < k do
    w.at <- w.at + 1
  done;
  let mark = w.marks.(w.at) in
  let m = Engine.machine w.session in
  (match sink with
  | None -> ()
  | Some sink ->
      for i = 0 to mark.cursor - 1 do
        sink w.events.(i)
      done;
      Machine.set_sink m sink;
      Option.iter (fun sheet -> Machine.set_meter m (Obs.Sheet.copy sheet)) mark.sheet);
  (* observers first: the engine re-latches them on restore *)
  Engine.restore w.session mark.ck;
  Machine.set_failure m (Failure.Nth_charge k);
  mark.payload
