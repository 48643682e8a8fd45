(** The simulated intermittently-powered MCU.

    A machine bundles the two memory spaces, the cost model, the energy
    subsystem (harvester + capacitor) and the failure model. Every
    operation performed on the machine — CPU work, memory accesses,
    peripheral activity — is routed through {!charge}, which advances
    simulated time, drains energy, and raises {!Power_failure} the moment
    the failure model fires. Higher layers (the task kernel) catch the
    exception, call {!reboot}, and re-execute the interrupted task: this
    reproduces the all-or-nothing task semantics of intermittent
    runtimes.

    Charged work is tagged either [App] (the application's own
    computation and I/O) or [Overhead] (bookkeeping inserted by a
    runtime: privatization, commit, flag checks). The per-attempt buckets
    let the kernel attribute each microsecond to useful work, runtime
    overhead, or wasted (lost to a power failure) — the three bars of the
    paper's Figures 7 and 10.

    {b Accounting.} The total, App and Overhead energy accounts are
    integers in picojoules ({!Cost} holds whole picojoules), so every
    sum is exact and independent of the order and grouping of charges;
    the nanojoule figures below are conversions of them.

    {b Capacitor.} In energy-driven mode every charge harvests and
    drains the capacitor and may kill the machine. Timer modes never
    consult it, so the charge path leaves it alone: the integer drain
    since the level was last brought up to date is subtracted when
    something reports the level — a trace sample, a boot or failure
    event, {!capacitor}, a switch into energy mode. Snapshots capture
    the level with its pending drain, so taking one changes nothing
    read later. *)

exception Power_failure
(** Raised mid-operation when power is lost. Never escapes the kernel
    engine. *)

type tag = App | Overhead

type attempt = {
  app_us : int;
  ovh_us : int;
  app_nj : float;
  ovh_nj : float;
}
(** Work accumulated since the last {!take_attempt}. *)

type t

val create :
  ?seed:int ->
  ?cost:Cost.t ->
  ?failure:Failure.spec ->
  ?harvester:Harvester.t ->
  ?capacitor:Capacitor.t ->
  unit ->
  t
(** The MSP430FR5994's memories — 128 Ki FRAM words (256 KB), 4 Ki SRAM
    words (8 KB) — and the default world. Defaults: no failures,
    constant 1 nJ/µs harvester, the paper's 1 mF capacitor window.
    The memory sizes are nominal capacities: they bound addresses and
    {!alloc} layouts, while host memory follows the words actually
    written (see {!Memory}), so creating a machine allocates no memory
    image. *)

val reset : ?seed:int -> ?failure:Failure.spec -> t -> unit
(** Recycle the machine for a fresh run: clear both memories and their
    diagnostic counters, re-create the failure model, reseed the RNG,
    refill the capacitor and zero every clock, counter and accounting
    bucket — observationally identical to {!create} with the same
    structural parameters, minus the allocation. Static {!alloc}
    layouts are {e kept}: this is the arena-reuse primitive behind
    [Vm.reset]. Defaults mirror {!create} ([seed 1], no failures). The
    trace sink and the metrics sheet are detached. *)

(** {1 Tracing}

    A machine optionally carries a {!Trace.Event.sink}; when one is
    attached, the machine (and every layer above it: kernel, runtimes,
    peripherals) narrates execution as structured events. Emission is
    pure observation — it charges no simulated time or energy — so a
    traced run is numerically identical to an untraced one, and the
    default nil sink costs a single branch per operation. *)

val set_sink : t -> Trace.Event.sink -> unit
(** Attach an event sink (normally [Trace.Recorder.sink]). *)

val clear_sink : t -> unit
val sink : t -> Trace.Event.sink option

val traced : t -> bool
(** Whether a sink is attached. Emitting layers guard event
    construction with this so disabled runs allocate nothing. *)

val emit : t -> Trace.Event.payload -> unit
(** Stamp the payload with the current simulated time and hand it to
    the sink (no-op without one). *)

(** {1 Metering}

    The campaign-metrics analogue of tracing: a machine optionally
    carries an {!Obs.Sheet.t}, and instrumented layers (engine, VM,
    baseline runtimes, I/O guards) bump interned counters on it when
    attached. Metering is pure observation — no simulated time or
    energy is charged — and the nil default costs one branch per
    instrumented site. Unlike the sink, the sheet accumulates ACROSS
    runs: campaigns attach one sheet to many runs and snapshot it once
    per shard. [reset] detaches it like the sink. *)

val set_meter : t -> Obs.Sheet.t -> unit

val clear_meter : t -> unit
(** Detach the sheet. Prefix-resume drivers bracket their own
    checkpoint captures with this so driver-side snapshot accounting
    stays out of the metered run's sheet. *)

val meter : t -> Obs.Sheet.t option

val metered : t -> bool
(** Whether a sheet is attached; instrumented layers guard updates with
    this (or pattern-match {!meter}) so unmetered runs pay one
    branch. *)

(** {1 Observation} *)

val now : t -> Units.time_us
(** The clock, as reports and drivers read it. Simulated code that
    derives a value from the time reads {!clock} instead. *)

val clock : t -> Units.time_us
(** [now], counted in {!clock_reads}: the read of every clock-derived
    value (persistent-timekeeper stamps, sensor samples, camera
    frames). *)

val clock_reads : t -> int
(** {!clock} calls since {!create} or {!reset}; outside snapshots. A
    stretch of execution that leaves it unchanged computed nothing from
    the clock, so it runs alike from every instant. *)

val on : t -> bool
val rng : t -> Rng.t
val world : t -> World.t
val cost : t -> Cost.t
val boots : t -> int
val failures : t -> int

val charges : t -> int
(** Cumulative {!charge} calls — the run's failure-boundary count. A
    clean run's final value is the probe used by exhaustive
    [Nth_charge] sweeps (see {!Failure.spec}). *)

val energy_used_nj : t -> float
(** Total energy charged this run, in nJ (the picojoule account
    converted). *)

val capacitor : t -> Capacitor.t
(** The capacitor, with its level brought up to date first (see the
    capacitor note above). *)

val failure_spec : t -> Failure.spec

(** {1 Charged operations} *)

val set_tag : t -> tag -> unit
val tag : t -> tag

val with_tag : t -> tag -> (unit -> 'a) -> 'a
(** Run a thunk with the given accounting tag, restoring the previous
    tag afterwards (also on exception). *)

val charge : t -> us:int -> pj:int -> unit
(** Low-level: consume time and energy (picojoules, plus the profile's
    idle leakage for [us]); may raise {!Power_failure}. *)

val charge_op : t -> Cost.op_cost -> int -> unit
(** [charge_op t op n] charges [n] repetitions of [op]. *)

val cpu : t -> int -> unit
(** [cpu t n] charges [n] CPU instructions. *)

val batchable : t -> n:int -> us:int -> bool
(** Whether the next [n] charges, [us] µs in all, may be applied as one
    {!charge_block}: the machine is in a timer mode, the failure model
    cannot fire at any of them (see {!Failure.quiet}), and, when a trace
    sink is attached, no capacitor sample falls due at any of them
    ([now + us] stays before the next sample) — the only event a charge
    that does not fire can emit. A meter sees no charge, so it does not
    matter here. *)

val charge_block : t -> n:int -> us:int -> pj:int -> ovh_us:int -> ovh_pj:int -> unit
(** Apply [n] charges in one step, exactly as [n] calls of {!charge}
    would leave the machine when none of them fires: [us]/[pj] are the
    sums of the charges made under the current tag, [ovh_us]/[ovh_pj]
    of those made under [Overhead] whatever the tag; the idle leakage
    is added as {!charge} adds it. Precondition:
    [batchable t ~n ~us:(us + ovh_us)]. Negated arguments take back a
    suffix of a block already applied (an error raised inside it). *)

val idle : t -> Units.time_us -> unit
(** Busy-wait (delay loop) for a duration; charges CPU time at idle
    energy. Charged in slices so failures can interrupt it. *)

(** {1 Memory} *)

val mem : t -> Memory.space -> Memory.t
val layout : t -> Memory.space -> Layout.t

val alloc : t -> Memory.space -> name:string -> words:int -> int
(** Static allocation (cost-free: happens at "link time"). *)

val read : t -> Memory.space -> int -> int
(** Charged word read. *)

val write : t -> Memory.space -> int -> int -> unit
(** Charged word write. *)

(** {1 Power-cycle control (kernel only)} *)

val boot : t -> unit
(** Arm the failure model at first power-on. Called once by the engine
    before the first task. *)

val reboot : t -> unit
(** After {!Power_failure}: advance time by the off interval, clear
    SRAM, recharge, arm the failure timer, count the failure. *)

val die : t -> unit
(** Force a power failure from outside the charge path (tests, and the
    checkpoint walker failing a restored capture). Inside a {!critical}
    section the failure is deferred to the section's end. *)

val intercept : t -> (unit -> bool) option -> unit
(** Install (or, with [None], remove) a hook consulted each time a power
    failure is about to take the machine down: when a failure fires
    outside any {!critical} section, or at the end of the section a
    failure was deferred to. If the hook returns [true] the machine
    stays on and execution goes on exactly as if nothing had fired;
    [false] lets the failure happen. A failure deadline ([Nth_charge])
    fires from inside {!charge}, so a hook that takes the failure and
    re-arms the deadline sees the machine as it stands at each chosen
    charge while one run goes on — the checkpoint walker's captures,
    which cost the charge path nothing. Outside snapshots, like the
    sink; {!reset} removes it. *)

val critical : t -> (unit -> 'a) -> 'a
(** Failure-atomic section: a power failure striking inside is deferred
    until the section completes (time and energy are charged normally).
    Models the atomicity real runtimes obtain from commit-replay
    protocols; the kernel engine wraps the task-boundary commit sequence
    in it. Nestable. *)

(** {1 Accounting} *)

val take_attempt : t -> attempt
(** Return work accumulated since the previous call and reset the
    buckets. *)

val event_id : string -> int
(** Intern an event name into its dense global id (see {!Events}).
    Peripherals do this once at module init so per-operation bumps touch
    no hash table. *)

val bump_id : t -> int -> unit
(** Increment the counter behind a pre-interned id — the hot-loop
    counterpart of {!bump}. *)

val bump : t -> string -> unit
(** Increment a named event counter (e.g. ["io:Temp"] per sensor
    execution). Shim over {!event_id} + {!bump_id}; prefer those on hot
    paths. *)

val event : t -> string -> int
val events : t -> (string * int) list

(** {1 Snapshots}

    A {!snapshot} is a total, immutable capture of the machine's run
    state: both memory images (copy-on-write — see {!Memory.snapshot} —
    so repeated captures along one run copy only the pages written
    between them, plus a page directory the size of the resident
    prefix), the failure model's mutable state, capacitor level, RNG
    state, clocks, counters, energy accounting and event counts. Static
    {!alloc} layouts are {e not} captured (they are monotone link-time
    data shared by every run of an arena), and neither are the attached
    trace sink / metrics sheet (pure observers; whoever restores
    re-attaches its own). The contract: [restore_snapshot] followed by
    identical charges replays the original execution byte for byte. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the current state. Nothing is metered: a caller that counts
    the pages a capture copied reads {!Memory.image_copied} of its
    images. *)

val restore_snapshot : ?failure:Failure.spec -> t -> snapshot -> unit
(** Roll the machine back to a captured state: O(resident pages) to
    scan, copying only the pages that may have changed since. The sink
    and meter are left as they are. [failure] replaces the captured
    failure spec while keeping the model's captured state (armed
    deadlines): a capture taken where one spent [Nth_charge] deadline
    left the machine stands for any other boundary whose failure lands
    in the same state. *)

val snapshot_hash : snapshot -> int
(** Structural hash (computed on demand, O(resident pages)) of
    everything that can influence future evolution or end-of-run checks
    — memories, clock, power, energy, RNG, event counts, armed failure
    state — excluding the failure {e spec} and pure observers. Equal
    hashes are the explorer's convergence test. *)

val snapshot_behavior_hash : snapshot -> int
(** Convergence key for reboot-space pruning: hashes what determines
    future decisions and committed values (memories, RNG, power flags,
    failure latches) but excludes the clock, energy accounting and
    monotone counters — which differ at every reboot point yet only
    shift time-derived (declared-volatile) observations. Coarser than
    {!snapshot_hash}: states equal under it evolve identically modulo
    [nv_volatile] regions. *)

val behavior_hash : t -> int
(** [snapshot_behavior_hash (snapshot t)], computed in place: no
    capture, no page copied, nothing metered. *)

val same_behavior : t -> snapshot -> bool
(** Whether the live machine equals the snapshot in everything
    {!snapshot_behavior_hash} covers: both memories word for word
    ({!Memory.same}) and every other field exactly, where the hash may
    collide. Read in place. *)

val snapshot_charges : snapshot -> int

val snapshot_tag : snapshot -> tag
(** The accounting tag at capture: at an attempt top, the tag a power
    failure's unwinding restores. *)

val snapshot_fram : snapshot -> Memory.image
val snapshot_sram : snapshot -> Memory.image

val set_failure : t -> Failure.spec -> unit
(** Swap the failure model under a live machine and (re-)arm it — the
    resume primitive: restore a snapshot taken before boundary [k],
    then [set_failure (Nth_charge k)] to steer the continuation into
    the k-th boundary. For the deterministic specs arming draws nothing
    from the RNG, so resumed runs match from-power-on runs exactly. *)
