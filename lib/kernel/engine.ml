open Platform

type hooks = {
  on_task_start : Machine.t -> string -> unit;
  on_commit : Machine.t -> string -> unit;
  on_reboot : Machine.t -> unit;
}

let no_hooks =
  {
    on_task_start = (fun _ _ -> ());
    on_commit = (fun _ _ -> ());
    on_reboot = (fun _ -> ());
  }

let compose_hooks a b =
  {
    on_task_start =
      (fun m name ->
        a.on_task_start m name;
        b.on_task_start m name);
    on_commit =
      (fun m name ->
        a.on_commit m name;
        b.on_commit m name);
    on_reboot =
      (fun m ->
        a.on_reboot m;
        b.on_reboot m);
  }

type outcome = {
  metrics : Metrics.t;
  completed : bool;
  power_failures : int;
  total_time_us : int;
  energy_nj : float;
  correct : bool option;
  gave_up : bool;
  stuck_task : string option;
}

(* Pseudo-task name for the sliver of work between a commit and the
   next task's identification (the task-pointer read): a power failure
   can land there, and its attempt must still appear in the trace for
   the Metrics reconciliation invariant to hold exactly. *)
let dispatch_task = "(dispatch)"

(* Campaign metric ids, interned once at module init so a metered run
   pays array bumps only (and an unmetered run a single branch). *)
let m_commits = Obs.Registry.counter "engine/commits"
let m_aborts = Obs.Registry.counter "engine/aborts"
let m_reboots = Obs.Registry.counter "engine/reboots"
let m_giveups = Obs.Registry.counter "engine/giveups"
let m_wasted_hist = Obs.Registry.hist "engine/wasted_attempt_us"

(* {1 The stepper}

   [run] used to be one while-loop that called [Machine.reboot] inline
   at every power failure. It is now expressed on top of a session +
   stepper: [start] performs the preamble and first boot,
   [run_until_boundary] executes attempts until the run either needs a
   reboot (— [Paused], exactly where the old loop called its local
   [reboot ()]) or ends ([Finished], exactly where it set [running :=
   false]), and [resume] is the old [reboot ()] body. Holding the
   machine at [Paused] is what lets campaigns fork the state instead
   of re-executing the prefix: the dead boundary is a stable point —
   no attempt in flight, SRAM about to be cleared — so a
   [Machine.snapshot] there (or at the attempt boundaries [on_attempt]
   exposes) captures everything the continuation depends on. *)

type session = {
  s_m : Machine.t;
  s_app : Task.app;
  s_hooks : hooks;
  s_max_failures : int;
  s_stall_limit : int;
  s_cur : int;  (* task-pointer slot *)
  s_metrics : Metrics.t;
  (* sink/meter presence, latched at [start] like the old preamble did;
     [restore] re-latches so a checkpoint can be revived under a
     different observer attachment *)
  mutable s_traced : bool;
  mutable s_meter : Obs.Sheet.t option;
  s_attempt_counts : (string, int) Hashtbl.t;
  mutable s_cur_name : string;
  mutable s_cur_att : int;
  (* the task being attempted, tracked even untraced so give-up reports
     can name it; never reset between attempts *)
  mutable s_last_task : string;
  mutable s_gave_up : bool;
  mutable s_stuck : string option;
  (* consecutive aborted attempts since the last commit: the forward-
     progress watchdog. A livelocked app (one task's cost exceeds every
     on-window) trips [stall_limit] long before [max_failures]. *)
  mutable s_stalled : int;
  mutable s_running : bool;
  (* how the attempt's body ended, from the start of its commit
     sequence until the commit is counted: a failure landing meanwhile
     was deferred past the commit *)
  mutable s_ending : Task.transition option;
}

type step = Paused | Finished of outcome

let start ?(hooks = no_hooks) ?(max_failures = 100_000) ?(stall_limit = 1_000) ?cur_slot m
    (app : Task.app) =
  (* arena reuse passes a pre-allocated slot so repeated runs don't grow
     the static layout *)
  let cur =
    match cur_slot with
    | Some slot -> slot
    | None -> Machine.alloc m Memory.Fram ~name:"kernel.cur_task" ~words:1
  in
  (* flash-time initialization of the task pointer: not charged *)
  Memory.write (Machine.mem m Memory.Fram) cur (Task.index_of app app.entry);
  let traced = Machine.traced m in
  let s =
    {
      s_m = m;
      s_app = app;
      s_hooks = hooks;
      s_max_failures = max_failures;
      s_stall_limit = stall_limit;
      s_cur = cur;
      s_metrics = Metrics.create ();
      s_traced = traced;
      s_meter = Machine.meter m;
      s_attempt_counts = Hashtbl.create (if traced then 16 else 1);
      s_cur_name = dispatch_task;
      s_cur_att = 0;
      s_last_task = dispatch_task;
      s_gave_up = false;
      s_stuck = None;
      s_stalled = 0;
      s_running = true;
      s_ending = None;
    }
  in
  Machine.boot m;
  s

let machine s = s.s_m
let running s = s.s_running
let metrics s = s.s_metrics
let stalled s = s.s_stalled

let give_up s =
  s.s_gave_up <- true;
  s.s_stuck <- Some s.s_last_task;
  match s.s_meter with None -> () | Some sheet -> Obs.Sheet.bump sheet m_giveups

(* a gave-up run never reached the app's final state, so its check
   would be meaningless: [correct] stays [None] and [gave_up] carries
   the verdict (campaign reports distinguish "livelocked" from
   "completed wrong") *)
let outcome s =
  let correct =
    if s.s_gave_up then None else Option.map (fun check -> check s.s_m) s.s_app.Task.check
  in
  {
    metrics = s.s_metrics;
    completed = not s.s_gave_up;
    power_failures = Machine.failures s.s_m;
    total_time_us = Machine.now s.s_m;
    energy_nj = Machine.energy_used_nj s.s_m;
    correct;
    gave_up = s.s_gave_up;
    stuck_task = s.s_stuck;
  }

let resume s =
  (match s.s_meter with None -> () | Some sheet -> Obs.Sheet.bump sheet m_reboots);
  Machine.reboot s.s_m;
  s.s_hooks.on_reboot s.s_m

(* The two ends of an attempt, shared by the stepper and by {!fail}.
   Each returns [Some Paused] when the run wants a reboot and [None]
   when it goes on or has ended ([s_running] says which). *)

(* A power failure interrupted the attempt: it counts as wasted. *)
let aborted s =
  let m = s.s_m in
  s.s_stalled <- s.s_stalled + 1;
  let att = Machine.take_attempt m in
  Metrics.fail s.s_metrics att;
  (match s.s_meter with
  | None -> ()
  | Some sheet ->
      Obs.Sheet.bump sheet m_aborts;
      Obs.Sheet.observe sheet m_wasted_hist (att.Machine.app_us + att.Machine.ovh_us));
  if s.s_traced then begin
    Machine.emit m
      (Trace.Event.Task_abort
         {
           task = s.s_cur_name;
           attempt = s.s_cur_att;
           app_us = att.Machine.app_us;
           ovh_us = att.Machine.ovh_us;
           app_nj = att.Machine.app_nj;
           ovh_nj = att.Machine.ovh_nj;
         });
    s.s_cur_name <- dispatch_task;
    s.s_cur_att <- 0
  end;
  if Machine.failures m >= s.s_max_failures || s.s_stalled >= s.s_stall_limit then begin
    give_up s;
    s.s_running <- false;
    None
  end
  else Some Paused

(* The attempt's commit sequence completed: it counts as useful. A
   failure deferred to the end of that sequence ([failed]) then lands
   between tasks, unless the task stopped the run. *)
let committed s transition ~failed =
  let m = s.s_m in
  s.s_ending <- None;
  s.s_stalled <- 0;
  let att = Machine.take_attempt m in
  Metrics.commit s.s_metrics att;
  (match s.s_meter with None -> () | Some sheet -> Obs.Sheet.bump sheet m_commits);
  if s.s_traced then begin
    Machine.emit m
      (Trace.Event.Task_commit
         {
           task = s.s_cur_name;
           attempt = s.s_cur_att;
           app_us = att.Machine.app_us;
           ovh_us = att.Machine.ovh_us;
           app_nj = att.Machine.app_nj;
           ovh_nj = att.Machine.ovh_nj;
         });
    s.s_cur_name <- dispatch_task;
    s.s_cur_att <- 0
  end;
  (match transition with
  | Task.Next _ -> ()
  | Task.Stop -> s.s_running <- false);
  if failed && s.s_running then
    if Machine.failures m >= s.s_max_failures then begin
      give_up s;
      s.s_running <- false;
      None
    end
    else Some Paused
  else None

let run_until_boundary ?on_attempt s =
  let m = s.s_m and app = s.s_app and hooks = s.s_hooks in
  let next_attempt name =
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt s.s_attempt_counts name) in
    Hashtbl.replace s.s_attempt_counts name n;
    n
  in
  let result = ref None in
  while !result = None && s.s_running do
    (match on_attempt with Some f -> f s | None -> ());
    match
      let idx = Machine.with_tag m Overhead (fun () -> Machine.read m Memory.Fram s.s_cur) in
      let task = Task.task_of_index app idx in
      s.s_last_task <- task.Task.name;
      if s.s_traced then begin
        s.s_cur_name <- task.Task.name;
        s.s_cur_att <- next_attempt task.Task.name;
        Machine.emit m (Trace.Event.Task_start { task = task.Task.name; attempt = s.s_cur_att })
      end;
      Machine.with_tag m Overhead (fun () -> hooks.on_task_start m task.Task.name);
      let transition = Machine.with_tag m App (fun () -> task.Task.body m) in
      (* the commit sequence (runtime commit + task-pointer advance) is
         failure-atomic, as in real runtimes' commit-replay protocols; a
         power failure striking inside it is deferred to its end, at
         which point the task HAS committed — the failure then simply
         lands between tasks *)
      s.s_ending <- Some transition;
      let failed_after_commit =
        match
          Machine.critical m (fun () ->
              Machine.with_tag m Overhead (fun () ->
                  hooks.on_commit m task.Task.name;
                  match transition with
                  | Task.Next next -> Machine.write m Memory.Fram s.s_cur (Task.index_of app next)
                  | Task.Stop -> ()))
        with
        | () -> false
        | exception Machine.Power_failure -> true
      in
      (transition, failed_after_commit)
    with
    | transition, failed -> result := committed s transition ~failed
    | exception Machine.Power_failure -> result := aborted s
  done;
  match !result with Some step -> step | None -> Finished (outcome s)

let rec drive ?on_attempt s =
  match run_until_boundary ?on_attempt s with
  | Paused ->
      resume s;
      drive ?on_attempt s
  | Finished o -> o

let run ?hooks ?max_failures ?stall_limit ?cur_slot m app =
  drive (start ?hooks ?max_failures ?stall_limit ?cur_slot m app)

(* {1 Checkpoints}

   A checkpoint pairs a total machine snapshot with the engine's own
   loop state (metrics, attempt numbering, watchdog) — everything a
   revived session needs to continue byte-identically. Taken from an
   [on_attempt] hook (attempt boundaries) or at [Paused] (charge
   boundaries, post-death pre-reboot). *)

type checkpoint = {
  k_snap : Machine.snapshot;
  k_metrics : Metrics.t;
  k_attempts : (string, int) Hashtbl.t;
  k_cur_name : string;
  k_cur_att : int;
  k_last : string;
  k_stalled : int;
  k_running : bool;
}

let checkpoint s =
  {
    k_snap = Machine.snapshot s.s_m;
    k_metrics = Metrics.copy s.s_metrics;
    k_attempts = Hashtbl.copy s.s_attempt_counts;
    k_cur_name = s.s_cur_name;
    k_cur_att = s.s_cur_att;
    k_last = s.s_last_task;
    k_stalled = s.s_stalled;
    k_running = s.s_running;
  }

let checkpoint_pages_copied k =
  Memory.image_copied (Machine.snapshot_fram k.k_snap)
  + Memory.image_copied (Machine.snapshot_sram k.k_snap)

(* The engine's loop state from [k]; the machine stays as it is. *)
let restore_loop s k =
  Metrics.assign ~src:k.k_metrics ~dst:s.s_metrics;
  Hashtbl.reset s.s_attempt_counts;
  Hashtbl.iter (Hashtbl.replace s.s_attempt_counts) k.k_attempts;
  s.s_cur_name <- k.k_cur_name;
  s.s_cur_att <- k.k_cur_att;
  s.s_last_task <- k.k_last;
  s.s_stalled <- k.k_stalled;
  s.s_running <- k.k_running;
  s.s_gave_up <- false;
  s.s_stuck <- None;
  s.s_ending <- None;
  (* re-latch observers: the reviver attaches its own sink/meter before
     restoring, exactly as a fresh run would before [start] *)
  s.s_traced <- Machine.traced s.s_m;
  s.s_meter <- Machine.meter s.s_m

let restore s k =
  Machine.restore_snapshot s.s_m k.k_snap;
  restore_loop s k

(* {1 Failing a capture}

   Inside an attempt the engine's own state moves only at its start
   (the task is identified and its attempt numbered) and at its end (the
   commit or abort is counted); the rest of the attempt's control state
   dies with a power failure. So a machine captured at a failing charge,
   with the loop state of its attempt top and the few fields below, is
   all a from-power-on run has at that failure. *)

type position = { p_name : string; p_att : int; p_last : string; p_ending : Task.transition option }

let position s =
  { p_name = s.s_cur_name; p_att = s.s_cur_att; p_last = s.s_last_task; p_ending = s.s_ending }

let fail s ~top p =
  restore_loop s top;
  s.s_cur_name <- p.p_name;
  s.s_cur_att <- p.p_att;
  s.s_last_task <- p.p_last;
  if p.p_att > 0 then Hashtbl.replace s.s_attempt_counts p.p_name p.p_att;
  let step =
    match Machine.die s.s_m with
    | () -> invalid_arg "Engine.fail: the failure was deferred"
    | exception Machine.Power_failure -> (
        (* the unwinding of the interrupted attempt restores its tag *)
        Machine.set_tag s.s_m (Machine.snapshot_tag top.k_snap);
        match p.p_ending with
        | None -> aborted s
        | Some transition -> committed s transition ~failed:true)
  in
  match step with Some step -> step | None -> Finished (outcome s)

let checkpoint_charges k = Machine.snapshot_charges k.k_snap
