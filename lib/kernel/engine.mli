(** Intermittent execution engine.

    The engine persists the identity of the current task in FRAM (the
    "task pointer" of Alpaca/InK), runs task bodies, and catches
    {!Platform.Machine.Power_failure}: the machine reboots, SRAM is
    cleared, and the interrupted task re-executes from its beginning.
    Runtime systems plug in via {!hooks} — privatization at task start,
    commit at task end, recovery after reboot — all charged to the
    overhead bucket. *)

open Platform

type hooks = {
  on_task_start : Machine.t -> string -> unit;
      (** called (tagged Overhead) before each task attempt, with the
          task name; runtimes privatize/recover here *)
  on_commit : Machine.t -> string -> unit;
      (** called (tagged Overhead) after a body returns, before the task
          pointer advances; runtimes commit privatized state here *)
  on_reboot : Machine.t -> unit;
      (** called (untagged: device is off) right after a reboot *)
}

val no_hooks : hooks

val compose_hooks : hooks -> hooks -> hooks
(** Run both hook sets, first argument first. *)

type outcome = {
  metrics : Metrics.t;
  completed : bool;  (** [not gave_up] *)
  power_failures : int;
  total_time_us : int;  (** wall-clock including off intervals *)
  energy_nj : float;
  correct : bool option;
      (** result of the app's [check], if any; [None] on give-up (the
          final state was never reached, so the check is meaningless) *)
  gave_up : bool;
      (** the engine stopped before the app finished: [max_failures]
          exhausted, or the forward-progress watchdog tripped *)
  stuck_task : string option;
      (** on give-up, the task being attempted when the engine stopped
          (the livelocked task for a watchdog trip) *)
}

val run :
  ?hooks:hooks ->
  ?max_failures:int ->
  ?stall_limit:int ->
  ?cur_slot:int ->
  Machine.t ->
  Task.app ->
  outcome
(** Execute [app] to completion, or give up after [max_failures] power
    failures (default 100_000) or — the forward-progress watchdog —
    [stall_limit] consecutive aborted attempts without a single task
    commit (default 1_000). Both are proxies for the paper's
    non-termination bug (a task's energy cost exceeds the energy
    buffer); the watchdog reports the stuck task's name instead of
    silently burning to [max_failures]. The machine must be freshly
    created (or {!Platform.Machine.reset}); the engine boots it.
    [cur_slot] supplies a pre-allocated FRAM word for the persistent
    task pointer — recycled arenas pass one so repeated runs don't grow
    the static layout; by default the engine allocates its own.

    [run] is [drive (start …)] over the stepper below. The two paths
    produce byte-identical observations (events, metrics, NV state) —
    verified by the test suite across the app catalog, runtimes,
    failure schedules and both interpreters. *)

(** {1 The stepper}

    The same loop, paused at power-failure boundaries instead of
    rebooting inline. At [Paused] the device is dead but the machine
    holds the complete pre-reboot state — the stable point campaigns
    and the explorer {!Platform.Machine.snapshot}, fork, and revive. *)

type session
(** An in-flight run: the machine plus the engine's loop state. *)

type step =
  | Paused
      (** a power failure ended the current attempt (or struck between
          tasks) and the run wants a {!resume}; exactly where [run]
          would have called [Machine.reboot] *)
  | Finished of outcome  (** the run ended; same outcome as [run] *)

val start :
  ?hooks:hooks ->
  ?max_failures:int ->
  ?stall_limit:int ->
  ?cur_slot:int ->
  Machine.t ->
  Task.app ->
  session
(** The preamble of [run]: allocate/adopt the task-pointer slot, write
    the entry task (uncharged), latch the observer attachments, and
    boot the machine. Defaults as in [run]. *)

val run_until_boundary : ?on_attempt:(session -> unit) -> session -> step
(** Execute attempts until the next power-failure boundary ([Paused])
    or the end of the run ([Finished]). [on_attempt] fires at the top
    of every attempt, before the task-pointer read — the engine's
    checkpoint hook: the machine is quiescent there (no attempt in
    flight), so {!checkpoint} from inside it captures a resumable
    state. Calling again after [Finished] returns the same outcome. *)

val resume : session -> unit
(** Reboot out of [Paused] — byte-identical to what [run] does between
    attempts: bump the reboot meter, advance time by the off interval,
    clear SRAM, re-arm the failure model, fire [on_reboot]. The session
    is then ready for the next [run_until_boundary]. *)

val drive : ?on_attempt:(session -> unit) -> session -> outcome
(** Run the session to its end from where it stands: alternate
    {!run_until_boundary} (passing [on_attempt] on) and {!resume} until
    [Finished]. *)

val machine : session -> Machine.t

val running : session -> bool
(** [false] once the run finished or gave up. *)

val metrics : session -> Metrics.t
(** The session's running metrics: the object its outcome will hold. *)

val stalled : session -> int
(** The watchdog counter now: consecutive aborted attempts since the
    last commit. *)

(** {2 Checkpoints}

    A checkpoint pairs a total {!Platform.Machine.snapshot} with the
    engine's own loop state (metrics, attempt numbering, watchdog
    counters): restoring one into its session and re-running the
    continuation is byte-identical to having re-executed the original
    prefix. Checkpoints are immutable and may be held across many
    restores — the primitive behind {!Walker}, through which all
    prefix sharing goes. *)

type checkpoint

val checkpoint : session -> checkpoint
(** Capture the session. Call at [Paused] or from [on_attempt]. *)

val restore : session -> checkpoint -> unit
(** Roll the session (and its machine) back. The observer attachments
    (sink/meter) are NOT part of the checkpoint: attach the desired
    observers to the machine first; [restore] re-latches them. *)

val checkpoint_charges : checkpoint -> int
(** The machine's cumulative charge count at capture — the key
    {!Walker} picks the attempt top a boundary belongs to by. *)

val checkpoint_pages_copied : checkpoint -> int
(** The memory pages its machine snapshot freshly copied
    ({!Platform.Memory.image_copied}); a snapshot meters nothing. *)

(** {2 Failing a capture}

    Inside an attempt the engine's own state moves only where the
    attempt starts (the task is identified and numbered) and where it
    ends; everything else about the interrupted attempt dies with the
    power. A machine snapshot taken where a power failure fires, plus
    the {!position} there and the checkpoint of the attempt's top, is
    therefore all that a from-power-on run holds at that failure: the
    primitive behind {!Walker.fail}. *)

type position
(** Where a running attempt stands: its task and attempt number, and
    whether its commit sequence has completed (a failure there was
    deferred past the commit). *)

val position : session -> position
(** Read at the moment a failure fires (from a
    {!Platform.Machine.intercept} hook). *)

val fail : session -> top:checkpoint -> position -> step
(** [fail s ~top p] handles a power failure exactly as
    {!run_until_boundary} does at [p]: the engine's loop state is taken
    from [top], the checkpoint at the top of [p]'s attempt, and the
    machine must already stand where the failure fired (restored from a
    snapshot taken there, its failure model spent). A failure in the
    attempt aborts it ([Paused], or [Finished] on a give-up); one
    deferred past the commit counts the commit and then lands between
    tasks, which finishes the run when the task stopped it. Observers
    are re-latched as {!restore} does. *)
