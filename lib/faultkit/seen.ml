open Platform

(* behavior hash, watchdog counter, packets received *)
type key = int * int * int
type state = { snap : Machine.snapshot; payloads : int array list }
type 'a t = (key, state * 'a) Hashtbl.t
type miss = { key : key; state : state }
type 'a found = Hit of 'a | Miss of miss

let create () = Hashtbl.create 256

let find t session radio =
  let m = Kernel.Engine.machine session in
  let key =
    (Machine.behavior_hash m, Kernel.Engine.stalled session, Periph.Radio.packets_sent radio)
  in
  let payloads = List.map snd (Periph.Radio.log radio) in
  match
    List.find_opt
      (fun (s, _) -> s.payloads = payloads && Machine.same_behavior m s.snap)
      (Hashtbl.find_all t key)
  with
  | Some (_, v) -> Hit v
  | None -> Miss { key; state = { snap = Machine.snapshot m; payloads } }

let add t miss v = Hashtbl.add t miss.key (miss.state, v)
