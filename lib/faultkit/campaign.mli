(** Fault-injection campaign runner.

    A campaign fans a list of failure schedules over the domain pool —
    one full app execution per schedule — and judges every run with the
    {!Oracle} suite:

    - {e livelock}: the engine gave up (forward-progress watchdog or
      failure budget); the stuck task is reported;
    - {e app-incorrect}: the app's own output check failed;
    - {e nv-mismatch}: the committed FRAM image differs from the
      no-failure golden run outside declared-volatile regions;
    - {e always-skipped}: an [Always] I/O site skipped re-execution.

    Two sweep shapes: [Boundaries] replays the app once per
    {!Platform.Failure.Nth_charge} boundary of the golden run (stride 1
    is the exhaustive sweep — {e every} possible failure placement at
    charge granularity); [Random] draws [At_times]/[Timer] schedules
    from the campaign seed. Reports are pure functions of
    (app, variants, sweep, seed): bit-identical for any [jobs]. *)

open Platform

type sweep = Boundaries of { stride : int } | Random of { cases : int }

val sweep_to_string : sweep -> string

val sweep_of_string : string -> (sweep, string) result
(** [boundaries], [boundaries:STRIDE] or [random:N]. *)

type violation =
  | Livelock of string  (** stuck task name *)
  | App_incorrect
  | Nv_mismatch of Oracle.mismatch list
  | Always_skipped of string list  (** offending site names *)

type case = { schedule : Failure.spec; pf : int; violations : violation list }

type failed_run = {
  first : case;
  count : int;  (** consecutive failed cases in the run, [first] included *)
  step : int;
      (** charges between the schedules of consecutive cases: the sweep's
          stride ([Nth_charge] boundaries), 0 for a random sweep, whose
          runs hold one case *)
}
(** A maximal run of consecutive failed cases of one cell, each the next
    boundary of the sweep after the one before, all with [first]'s
    violations and power-failure count. *)

val failed_cases : ?limit:int -> failed_run list -> case list
(** The cases of the runs, in order, at most [limit] of them. *)

val verdict :
  gave_up:bool ->
  stuck_task:string option ->
  correct:bool option ->
  diff:Oracle.mismatch list ->
  skipped:string list ->
  violation list
(** The verdict on one finished run, for sweep cases and the explorer
    alike. A run that gave up never reached its final state, so its
    livelock is its only violation; otherwise the app check, the NV
    diff ({!Oracle.nv_diff}) and the skipped Always sites, in order. *)

val violation_text : violation -> string
(** One line, as the [faults] and [explore] commands print it: the
    first NV mismatch only. *)

val violation_json : violation -> Trace.Json.t
(** As in campaign and explorer reports. *)

type totals = { app_us : int; ovh_us : int; wasted_us : int; commits : int; attempts : int }
(** Summed [Kernel.Metrics] over a set of runs — the ground truth the
    attribution profile reconciles against. *)

type cell = {
  variant : Apps.Common.variant;
  boundaries : int;  (** golden-run charge count (sweep space size) *)
  cases : int;  (** schedules actually run *)
  boundaries_run : int;
      (** exact coverage: boundaries run as [Nth_charge] cases (equals
          [cases] for boundary sweeps, [0] for random ones) *)
  strided : bool;  (** a stride > 1 skipped boundaries *)
  failed : failed_run list;  (** cases with at least one violation, as runs *)
  failed_count : int;  (** cases with at least one violation *)
  snap : Obs.Snapshot.t;  (** metrics merged over the cell, schedule order *)
  cell_profile : Obs.Attr.profile;  (** attribution merged over the cell *)
  cell_totals : totals;
}

type report = { app : string; sweep : sweep; seed : int; cells : cell list }

val run_cell :
  ?jobs:int ->
  ?progress:Obs.Progress.t ->
  resume:bool ->
  sweep:sweep ->
  seed:int ->
  Apps.Common.spec ->
  Apps.Common.variant ->
  cell
(** One variant's cell, exactly as {!run} computes it. [run] is
    [List.map] of this over the variants — callers that shard a
    campaign (the serve fleet) reassemble a byte-identical report from
    independently computed cells. *)

val run :
  ?jobs:int ->
  ?progress:Obs.Progress.t ->
  ?resume:bool ->
  ?seed:int ->
  sweep:sweep ->
  variants:Apps.Common.variant list ->
  Apps.Common.spec ->
  report
(** Run one campaign: per variant, a golden capture then the sweep.
    Raises [Failure] if a golden (no-failure) run is itself incorrect.
    Default seed 1. [jobs] sizes the domain pool; the report is
    bit-identical for any value. Every sweep case is metered (a fresh
    per-case sheet and attribution collector, folded in schedule
    order); the golden capture itself is not part of the profile.
    [progress] is ticked once per finished case ({!Obs.Progress.finish}
    is the caller's job).

    [resume] (default [true]): boundary sweeps of apps that expose a
    {!Apps.Common.spec} [session] run prefix-sharing — a continuous
    pacer run paces a taped {!Kernel.Walker}, and each [Nth_charge]
    case is failed at its boundary from the walker's capture there
    ({!Kernel.Walker.fail}) instead of replaying from power on, its
    observers fed the taped prefix. Every boundary resumes: the engine
    charges nothing before its first checkpoint. The resumed cases fan
    out over the same domain pool, each domain that takes a chunk
    pacing its own walk (the calling domain reuses the golden pacer, so
    [jobs = 1] paces once). Each pacer also keeps the continuations it
    simulated in a {!Seen} table, keyed by the post-reboot state as the
    explorer's pruning is, and a case that reboots into a stored state
    replays them instead of simulating; a continuation that read the
    clock ({!Platform.Machine.clock_reads}) is never stored. The report
    is byte-identical to [~resume:false] and for any [jobs]; only the
    wall-clock changes.

    Either way, each case's verdict, snapshot, profile and totals are
    folded into its cell in schedule order as soon as every earlier
    case has finished ({!Expkit.Pool.fold}), so a cell holds only the
    cases that finished ahead of the oldest running one, never the
    whole sweep's. *)

val cell_passed : cell -> bool
val passed : report -> bool

val coverage_totals : report -> int * int
(** [(boundaries_total, boundaries_run)] summed over cells — the exact
    fraction of the boundary space the sweep actually executed. *)

val strided : report -> bool

(** {1 Campaign-wide observability}

    Cell snapshots/profiles merged in cell (variant) order. *)

val snapshot : report -> Obs.Snapshot.t
val profile : report -> Obs.Attr.profile
val totals : report -> totals

val reconcile : report -> (unit, string) result
(** Exact integer cross-check: the merged attribution profile must sum
    to the summed per-run [Kernel.Metrics] of every sweep case. *)

val flamegraph : report -> string
(** Folded-stack flamegraph of the merged profile, root frame = app
    name. Line weights sum exactly to the reconciled µs totals. *)

val perfetto : report -> Trace.Json.t
(** Chrome/Perfetto counter tracks (app/overhead/wasted µs, power
    failures, failed cases) with the logical cell index as the
    timestamp axis — identical output for any [jobs]. *)

val to_json : report -> Trace.Json.t
(** Stable JSON (at most 20 failed cases detailed per cell;
    [failed_count] always carries the true number). Embeds per-cell
    and campaign-wide metric snapshots, attribution profiles and
    metric totals. *)
