open Platform

type strategy = Direct | Alpaca | Ink

let strategy_name = function Direct -> "Direct" | Alpaca -> "Alpaca" | Ink -> "InK"

type var = {
  name : string;
  primary : int;  (** canonical backing store in FRAM *)
  shadow : int;  (** Alpaca private copy / InK second buffer (-1 if none) *)
  index : int;  (** InK active-buffer index word (-1 if none) *)
  words : int;
  war : bool;
}

type t = { m : Machine.t; strategy : strategy; mutable vars : var list }

(* InK's reactive kernel runs a scheduler step at every task boundary. *)
let ink_scheduler_ops = 35

(* Alpaca writes a commit-list record (entry + ready flag) per
   privatized variable during two-phase commit. *)
let alpaca_commit_records = 2

(* Campaign metric ids (see Obs.Registry); interned once at module
   init. *)
let m_privatize_words = Obs.Registry.counter "runtime/privatize_words"
let m_commit_words = Obs.Registry.counter "runtime/commit_words"
let m_privatizes = Obs.Registry.counter "runtime/privatizes"
let m_commits = Obs.Registry.counter "runtime/commits"

let create m strategy = { m; strategy; vars = [] }
let machine t = t.m
let strategy t = t.strategy

let declare ?(war = false) t ~name ~words =
  let alloc suffix = Machine.alloc t.m Memory.Fram ~name:(name ^ suffix) ~words in
  let primary = alloc "" in
  let privatized = war && t.strategy <> Direct in
  let shadow =
    if privatized then
      Machine.alloc t.m Memory.Fram
        ~name:
          (match t.strategy with
          | Alpaca -> "rt.alpaca.priv." ^ name
          | Ink -> "rt.ink.buf2." ^ name
          | Direct -> assert false)
        ~words
    else -1
  in
  let index =
    if privatized && t.strategy = Ink then
      Machine.alloc t.m Memory.Fram ~name:("rt.ink.idx." ^ name) ~words:1
    else -1
  in
  let v = { name; primary; shadow; index; words; war } in
  t.vars <- v :: t.vars;
  v

let privatized t v = v.war && t.strategy <> Direct

(* InK: the two buffers swap roles; [active] is where committed data
   lives, the other buffer is the task's working copy. *)
let ink_active t v = if Machine.read t.m Memory.Fram v.index = 0 then v.primary else v.shadow
let ink_working t v = if Machine.read t.m Memory.Fram v.index = 0 then v.shadow else v.primary

let raw_loc t v =
  match t.strategy with
  | Direct | Alpaca -> Loc.fram v.primary
  | Ink -> if privatized t v then Loc.fram (ink_active t v) else Loc.fram v.primary

(* Like [raw_loc], but the InK index flag is peeked without charging:
   flash-time initialization precedes first power-up, so it must not
   tick the failure model (an [Nth_charge 1] schedule would otherwise
   fire before the engine can field it). *)
let flash_loc t v =
  match t.strategy with
  | Direct | Alpaca -> Loc.fram v.primary
  | Ink ->
      if privatized t v && Memory.read (Machine.mem t.m Memory.Fram) v.index <> 0 then
        Loc.fram v.shadow
      else Loc.fram v.primary

let working_base t v =
  if not (privatized t v) then v.primary
  else match t.strategy with Alpaca -> v.shadow | Ink -> ink_working t v | Direct -> v.primary

let check v i =
  if i < 0 || i >= v.words then
    invalid_arg (Printf.sprintf "Manager: index %d out of bounds for %s[%d]" i v.name v.words)

let read t v i =
  check v i;
  Machine.read t.m Memory.Fram (working_base t v + i)

let committed t v i =
  check v i;
  let base =
    if not (privatized t v) then v.primary
    else
      match t.strategy with
      | Alpaca | Direct -> v.primary
      | Ink ->
          (* uncharged: post-run inspection must not touch the failure model *)
          if Memory.read (Machine.mem t.m Memory.Fram) v.index = 0 then v.primary else v.shadow
  in
  Memory.read (Machine.mem t.m Memory.Fram) (base + i)

let write t v i x =
  check v i;
  Machine.write t.m Memory.Fram (working_base t v + i) x

let copy_words t ~src ~dst ~words =
  for i = 0 to words - 1 do
    Machine.write t.m Memory.Fram (dst + i) (Machine.read t.m Memory.Fram (src + i))
  done

let privatized_words t =
  List.fold_left (fun acc v -> if privatized t v then acc + v.words else acc) 0 t.vars

let on_task_start t task =
  (match t.strategy with
  | Direct -> ()
  | Alpaca ->
      List.iter
        (fun v -> if privatized t v then copy_words t ~src:v.primary ~dst:v.shadow ~words:v.words)
        t.vars
  | Ink ->
      Machine.cpu t.m ink_scheduler_ops;
      List.iter
        (fun v ->
          if privatized t v then
            copy_words t ~src:(ink_active t v) ~dst:(ink_working t v) ~words:v.words)
        t.vars);
  if t.strategy <> Direct then begin
    (match Machine.meter t.m with
    | None -> ()
    | Some sheet ->
        Obs.Sheet.bump sheet m_privatizes;
        Obs.Sheet.add sheet m_privatize_words (privatized_words t));
    if Machine.traced t.m then
      Machine.emit t.m
        (Trace.Event.Privatize
           { runtime = strategy_name t.strategy; task; words = privatized_words t })
  end

let on_commit t task =
  (match t.strategy with
  | Direct -> ()
  | Alpaca ->
      List.iter
        (fun v ->
          if privatized t v then begin
            copy_words t ~src:v.shadow ~dst:v.primary ~words:v.words;
            (* commit-list record: entry + ready flag *)
            Machine.charge_op t.m (Machine.cost t.m).Cost.fram_write alpaca_commit_records
          end)
        t.vars
  | Ink ->
      Machine.cpu t.m ink_scheduler_ops;
      List.iter
        (fun v ->
          if privatized t v then
            Machine.write t.m Memory.Fram v.index (1 - Machine.read t.m Memory.Fram v.index))
        t.vars);
  if t.strategy <> Direct then begin
    (match Machine.meter t.m with
    | None -> ()
    | Some sheet ->
        Obs.Sheet.bump sheet m_commits;
        Obs.Sheet.add sheet m_commit_words (privatized_words t));
    if Machine.traced t.m then
      Machine.emit t.m
        (Trace.Event.Commit
           { runtime = strategy_name t.strategy; task; words = privatized_words t })
  end

let hooks t =
  {
    Kernel.Engine.on_task_start = (fun _m task -> on_task_start t task);
    on_commit = (fun _m task -> on_commit t task);
    on_reboot = (fun _m -> ());
  }
