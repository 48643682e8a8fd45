(* Global event-name interning.

   Event counters used to live in a per-machine string-keyed Hashtbl,
   paying a hash + string compare on every I/O site in the hot loop.
   Names are now interned once into small dense ids (peripheral modules
   intern theirs at module-init time) and each machine keeps a plain
   int-array of counters indexed by id.

   The registry is global and append-only. Interning, [find] and
   [registered] take a mutex. [name] does not: a traced run looks up
   the name of every counter it bumps, so it reads the name table
   through an [Atomic.t]. A slot is written before the table is
   published, and an id reaches a caller only after its slot was
   written, so every id a caller holds names a filled slot. *)

let mu = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string array Atomic.t = Atomic.make (Array.make 16 "")
let count = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let id name =
  locked (fun () ->
      match Hashtbl.find_opt ids name with
      | Some i -> i
      | None ->
          let i = !count in
          Hashtbl.add ids name i;
          let table = Atomic.get names in
          let table =
            if i < Array.length table then table
            else begin
              let bigger = Array.make (2 * Array.length table) "" in
              Array.blit table 0 bigger 0 (Array.length table);
              bigger
            end
          in
          table.(i) <- name;
          Atomic.set names table;
          incr count;
          i)

let find name = locked (fun () -> Hashtbl.find_opt ids name)
let name i = (Atomic.get names).(i)
let registered () = locked (fun () -> !count)
