open Platform

type slot = { flag : int; stamp : int; value : int }

(* Effective execution mode imposed by enclosing I/O blocks (§3.3.1):
   [Skip] — the block already completed and is still valid, inner
   operations restore their stored results; [Force] — the block's
   semantics were violated, inner operations re-execute regardless of
   their own flags; [Normal] — no enclosing decision, each operation
   follows its own semantics. *)
type mode = Normal | Force | Skip

type t = {
  m : Machine.t;
  slots : (string, slot) Hashtbl.t;
  task_flags : (string, int list ref) Hashtbl.t;
  priv_base : int;
  priv_words : int;
  mutable priv_next : int;
  priv_sites : (string, int) Hashtbl.t;
  region_priv : (string, int) Hashtbl.t;
  mutable cur_task : string;
  counters : (string, int) Hashtbl.t;
  mutable executed : string list;
  mutable modes : mode list;
  mutable pending_dma : int list;
      (* completion flags of Single DMA transfers executed in this
         attempt but not yet sealed: the paper treats a DMA as complete
         only once the following region's privatization ends (Fig. 6),
         so a failure in between re-executes the DMA instead of leaving
         a hole in the region snapshots *)
}

type dma_kind = Dma_single | Dma_private | Dma_always

let create ?(priv_buffer_words = 2048) m =
  let priv_base =
    if priv_buffer_words > 0 then
      Machine.alloc m Memory.Fram ~name:"easeio.dma_priv_buffer" ~words:priv_buffer_words
    else 0
  in
  {
    m;
    slots = Hashtbl.create 64;
    task_flags = Hashtbl.create 16;
    priv_base;
    priv_words = priv_buffer_words;
    priv_next = priv_base;
    priv_sites = Hashtbl.create 16;
    region_priv = Hashtbl.create 16;
    cur_task = "<none>";
    counters = Hashtbl.create 16;
    executed = [];
    modes = [];
    pending_dma = [];
  }

let machine t = t.m
let ovh t f = Machine.with_tag t.m Machine.Overhead f
let effective t = match t.modes with [] -> Normal | m :: _ -> m

(* whether the named I/O operation executed (was not skipped) in the
   current task attempt — the dependence signal of §3.3.2 *)
let executed_this_cycle t name = List.mem name t.executed

let deps_executed t deps =
  Machine.cpu t.m (List.length deps);
  List.exists (fun d -> executed_this_cycle t d) deps

let register_flag t addr =
  let flags =
    match Hashtbl.find_opt t.task_flags t.cur_task with
    | Some f -> f
    | None ->
        let f = ref [] in
        Hashtbl.add t.task_flags t.cur_task f;
        f
  in
  flags := addr :: !flags

(* Persistent per-call-site slot: the compiler front-end's
   lock_<fn>_<task>_<n>, time_<fn> and <fn>_priv variables. Allocation is
   link-time (uncharged); accesses are charged where they happen. *)
let site t name index =
  let key =
    match index with
    | Some i -> Printf.sprintf "%s/%s[%d]" t.cur_task name i
    | None ->
        let occ = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
        Hashtbl.replace t.counters name (occ + 1);
        Printf.sprintf "%s/%s#%d" t.cur_task name occ
  in
  match Hashtbl.find_opt t.slots key with
  | Some s -> (s, key)
  | None ->
      let flag = Machine.alloc t.m Memory.Fram ~name:("easeio.lock." ^ key) ~words:1 in
      let stamp = Machine.alloc t.m Memory.Fram ~name:("easeio.time." ^ key) ~words:1 in
      let value = Machine.alloc t.m Memory.Fram ~name:("easeio.priv." ^ key) ~words:1 in
      let s = { flag; stamp; value } in
      Hashtbl.add t.slots key s;
      register_flag t flag;
      (s, key)

let read_flag t s = Machine.read t.m Memory.Fram s.flag = 1

(* {2 Trace-only helpers}

   These never charge the machine: the Exec/Replay distinction needs the
   flag value in paths that don't read it (block-forced re-execution),
   and a charged read there would shift every later failure — violating
   the traced-run-is-numerically-identical guarantee. *)

let trace_sem : Semantics.t -> Trace.Event.sem = function
  | Semantics.Single -> Trace.Event.Single
  | Semantics.Timely d -> Trace.Event.Timely d
  | Semantics.Always -> Trace.Event.Always

let flag_set_uncharged t s = Memory.read (Machine.mem t.m Memory.Fram) s.flag = 1

(* Campaign metric ids: every guarded-I/O verdict lands in exactly one
   of these three counters, so [io/exec + io/replay] is the campaign's
   I/O execution count and [io/replay] its redundancy. *)
let m_io_exec = Obs.Registry.counter "io/exec"
let m_io_replay = Obs.Registry.counter "io/replay"
let m_io_skip = Obs.Registry.counter "io/skip"

let trace_io t s ~site ~kind ~sem verdict ~reason =
  (match Machine.meter t.m with
  | None -> ()
  | Some sheet ->
      Obs.Sheet.bump sheet
        (match verdict with
        | `Skip -> m_io_skip
        | `Exec -> if flag_set_uncharged t s then m_io_replay else m_io_exec));
  if Machine.traced t.m then begin
    let decision =
      match verdict with
      | `Skip -> Trace.Event.Skip
      | `Exec ->
          (* a set flag means the site already completed once: this
             execution is a replay, whatever forced it *)
          if flag_set_uncharged t s then Trace.Event.Replay else Trace.Event.Exec
    in
    Machine.emit t.m
      (Trace.Event.Io { site; kind; sem = trace_sem sem; decision; reason })
  end

(* Decide whether a guarded operation must execute, per its own
   semantics, its dependences, and the enclosing block mode. Returns the
   verdict plus the reason that produced it (trace vocabulary); the
   charged operations are exactly those of the untraced decision. *)
let decide t s ~sem ~deps =
  ovh t (fun () ->
      Machine.cpu t.m 2;
      match effective t with
      | Skip -> (`Skip, "block-skip")
      | Force -> (`Exec, "block-force")
      | Normal ->
          if not (read_flag t s) then (`Exec, "first")
          else if deps_executed t deps then (`Exec, "dep")
          else begin
            match (sem : Semantics.t) with
            | Always -> (`Exec, "always")
            | Single -> (`Skip, "done")
            | Timely d ->
                let last = Machine.read t.m Memory.Fram s.stamp in
                if Timekeeper.elapsed_since t.m last > d then (`Exec, "expired")
                else (`Skip, "fresh")
          end)

let complete t s ~sem ~value =
  ovh t (fun () ->
      (match value with
      | Some v -> Machine.write t.m Memory.Fram s.value v
      | None -> ());
      (match (sem : Semantics.t) with
      | Timely _ -> Machine.write t.m Memory.Fram s.stamp (Timekeeper.read t.m)
      | Single | Always -> ());
      (* the flag write is the commit point: a failure before it simply
         re-executes the operation *)
      Machine.write t.m Memory.Fram s.flag 1)

let call_io t ?(deps = []) ?index ~name ~sem f =
  let s, key = site t name index in
  let verdict, reason = decide t s ~sem ~deps in
  trace_io t s ~site:key ~kind:"call" ~sem verdict ~reason;
  match verdict with
  | `Skip -> ovh t (fun () -> Machine.read t.m Memory.Fram s.value)
  | `Exec ->
      let v = f t.m in
      t.executed <- name :: t.executed;
      complete t s ~sem ~value:(Some v);
      v

let call_io_unit t ?(deps = []) ?index ~name ~sem f =
  let s, key = site t name index in
  let verdict, reason = decide t s ~sem ~deps in
  trace_io t s ~site:key ~kind:"call" ~sem verdict ~reason;
  match verdict with
  | `Skip -> ()
  | `Exec ->
      f t.m;
      t.executed <- name :: t.executed;
      complete t s ~sem ~value:None

let io_block t ?(deps = []) ~name ~sem body =
  let s, key = site t name None in
  let mode, reason =
    ovh t (fun () ->
        Machine.cpu t.m 2;
        match effective t with
        | Skip -> (Skip, "block-skip")
        | Force -> (Force, "block-force")
        | Normal ->
            if deps_executed t deps then (Force, "dep")
            else if not (read_flag t s) then (Normal, "first")
            else begin
              match (sem : Semantics.t) with
              | Always -> (Force, "always")
              | Single -> (Skip, "done")
              | Timely d ->
                  let last = Machine.read t.m Memory.Fram s.stamp in
                  if Timekeeper.elapsed_since t.m last > d then (Force, "expired")
                  else (Skip, "fresh")
            end)
  in
  trace_io t s ~site:key ~kind:"block" ~sem
    (match mode with Skip -> `Skip | Normal | Force -> `Exec)
    ~reason;
  t.modes <- mode :: t.modes;
  let v =
    Fun.protect ~finally:(fun () -> t.modes <- List.tl t.modes) body
  in
  (match mode with
  | Skip -> ()
  | Normal | Force ->
      t.executed <- name :: t.executed;
      complete t s ~sem ~value:None);
  v

let classify_dma ~src ~dst =
  if Loc.is_nv dst then Dma_single else if Loc.is_nv src then Dma_private else Dma_always

let priv_site t key words =
  match Hashtbl.find_opt t.priv_sites key with
  | Some off -> off
  | None ->
      if t.priv_next + words > t.priv_base + t.priv_words then
        failwith
          (Printf.sprintf
             "EaseIO: DMA privatization buffer exhausted at %s (%d words needed, %d free); \
              enlarge the buffer or annotate constant-source copies with Exclude"
             key words (t.priv_base + t.priv_words - t.priv_next));
      let off = t.priv_next in
      t.priv_next <- off + words;
      Hashtbl.add t.priv_sites key off;
      off

let dma_site t name =
  (* reuse the slot machinery: the flag doubles as the completion lock
     (Dma_single) or the phase-1 privatization flag (Dma_private) *)
  let occ = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
  Hashtbl.replace t.counters name (occ + 1);
  let key = Printf.sprintf "%s/%s#%d" t.cur_task name occ in
  let s =
    match Hashtbl.find_opt t.slots key with
    | Some s -> s
    | None ->
        let flag = Machine.alloc t.m Memory.Fram ~name:("easeio.lock." ^ key) ~words:1 in
        let s = { flag; stamp = flag; value = flag } in
        Hashtbl.add t.slots key s;
        register_flag t flag;
        s
  in
  (s, key)

let dma_copy ?(exclude = false) ?(force = false) ?(deps = []) ?(name = "DMA") t ~src ~dst ~words =
  if exclude then
    (* Exclude (§4.3): the compiler fixes the type to Always; no
       classification, no privatization — programmer asserts the source
       is constant. *)
    Periph.Dma.copy t.m ~src ~dst ~words
  else begin
    let s, key = dma_site t name in
    match classify_dma ~src ~dst with
    | Dma_always ->
        trace_io t s ~site:key ~kind:"dma" ~sem:Semantics.Always `Exec ~reason:"always";
        Periph.Dma.copy t.m ~src ~dst ~words
    | Dma_single -> begin
        let verdict, reason =
          if force then (`Exec, "force") else decide t s ~sem:Semantics.Single ~deps
        in
        trace_io t s ~site:key ~kind:"dma" ~sem:Semantics.Single verdict ~reason;
        match verdict with
        | `Skip -> ()
        | `Exec ->
            Periph.Dma.copy t.m ~src ~dst ~words;
            t.executed <- name :: t.executed;
            (* completion is deferred: the flag is sealed by the next
               region's privatization (or an explicit seal), making DMA
               and regional privatization atomic *)
            t.pending_dma <- s.flag :: t.pending_dma
      end
    | Dma_private ->
        let priv = ovh t (fun () -> priv_site t key words) in
        let phase1_done =
          ovh t (fun () ->
              Machine.cpu t.m 2;
              (not force) && effective t <> Force && read_flag t s)
        in
        (* phase 2 always runs (the destination is volatile): the
           decision reflects whether phase 1 (the snapshot) was fresh *)
        let reason =
          if phase1_done then "done"
          else if force then "force"
          else if effective t = Force then "block-force"
          else "first"
        in
        trace_io t s ~site:key ~kind:"dma-priv" ~sem:Semantics.Single `Exec ~reason;
        if not phase1_done then begin
          (* phase 1: snapshot the (non-volatile) source into the
             privatization buffer; runtime bookkeeping, hence overhead *)
          ovh t (fun () ->
              Periph.Dma.copy t.m ~src ~dst:(Loc.fram priv) ~words;
              Machine.write t.m Memory.Fram s.flag 1)
        end;
        (* phase 2: deliver from the stable private copy; re-executed
           after every reboot because the destination is volatile, but
           immune to later mutation of the original source (WAR safety) *)
        Periph.Dma.copy t.m ~src:(Loc.fram priv) ~dst ~words;
        t.executed <- name :: t.executed
  end

let seal_dmas t =
  ovh t (fun () -> List.iter (fun flag -> Machine.write t.m Memory.Fram flag 1) t.pending_dma);
  t.pending_dma <- []

let region t ~id ~vars body =
  List.iter
    (fun ((loc : Loc.t), _) ->
      if not (Loc.is_nv loc) then
        invalid_arg "Runtime.region: only non-volatile variables can be privatized")
    vars;
  let key = Printf.sprintf "%s#region%d" t.cur_task id in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 vars in
  let flag =
    match Hashtbl.find_opt t.slots key with
    | Some s -> s.flag
    | None ->
        let flag = Machine.alloc t.m Memory.Fram ~name:("easeio.regionflag." ^ key) ~words:1 in
        Hashtbl.add t.slots key { flag; stamp = flag; value = flag };
        register_flag t flag;
        flag
  in
  let priv =
    match Hashtbl.find_opt t.region_priv key with
    | Some p -> p
    | None ->
        let p = Machine.alloc t.m Memory.Fram ~name:("easeio.region_priv." ^ key) ~words:total in
        Hashtbl.add t.region_priv key p;
        p
  in
  ovh t (fun () ->
      Machine.cpu t.m 2;
      if Machine.read t.m Memory.Fram flag <> 1 then begin
        (* first entry in this execution instance: privatize *)
        let off = ref priv in
        List.iter
          (fun ((loc : Loc.t), w) ->
            for i = 0 to w - 1 do
              Machine.write t.m Memory.Fram (!off + i) (Machine.read t.m loc.space (loc.addr + i))
            done;
            off := !off + w)
          vars;
        Machine.write t.m Memory.Fram flag 1;
        if Machine.traced t.m then
          Machine.emit t.m
            (Trace.Event.Region_priv { region = key; words = total; restored = false })
      end
      else begin
        (* re-entry after a power failure: recover *)
        let off = ref priv in
        List.iter
          (fun ((loc : Loc.t), w) ->
            for i = 0 to w - 1 do
              Machine.write t.m loc.space (loc.addr + i) (Machine.read t.m Memory.Fram (!off + i))
            done;
            off := !off + w)
          vars;
        if Machine.traced t.m then
          Machine.emit t.m
            (Trace.Event.Region_priv { region = key; words = total; restored = true })
      end);
  (* the region snapshot now reflects the DMA's effects (fresh or
     recovered), so the transfers that preceded this region are complete *)
  seal_dmas t;
  body ()

let hooks t =
  {
    Kernel.Engine.on_task_start =
      (fun _m task ->
        t.cur_task <- task;
        Hashtbl.reset t.counters;
        t.executed <- [];
        t.modes <- [];
        t.pending_dma <- []);
    on_commit =
      (fun _m task ->
        match Hashtbl.find_opt t.task_flags task with
        | None -> ()
        | Some flags -> List.iter (fun addr -> Machine.write t.m Memory.Fram addr 0) !flags);
    on_reboot = (fun _m -> ());
  }

let priv_buffer_used t = t.priv_next - t.priv_base
let slot_count t = Hashtbl.length t.slots
