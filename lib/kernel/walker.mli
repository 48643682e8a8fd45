(** The checkpoint walker, behind everything that places power
    failures at charge boundaries from a shared prefix: resumed boundary
    sweeps and the reboot-space explorer.

    {!pace} drives a session to its end, recording at every attempt top
    an {!Engine.checkpoint} and a caller payload (state outside the
    machine, such as a radio log). {!fail} then places a power failure
    at charge [k]: it leaves the session exactly where a from-power-on
    run under {!Platform.Failure.Nth_charge}[ k] stands once that
    failure has been handled.

    A failure discards the interrupted attempt's control state, so what
    a boundary needs is the machine as it stands at the failing charge
    (plus the payload, the tape position and the metrics sheet there).
    The walker runs the boundary's attempt forward from its top once and
    captures that at [k] and at the boundaries that follow it in the
    attempt, in batches of at most 32; each boundary is then placed by
    restoring its capture and failing it ({!Engine.fail}). The captures
    ride the failure deadline ({!Platform.Machine.intercept}), so the
    charge path does no extra work and VM blocks batch up to each
    captured charge. A boundary costs one restore and a share of its
    batch's forward pass, instead of re-simulating its attempt from the
    top. *)

val observed : Trace.Event.t -> bool
(** The event kinds a walk's observers read: task commits and aborts,
    I/O decisions, boots and power failures ({!Obs.Attr.sink} and the
    Always watch ignore the rest). Only these are taped, recorded while
    a batch runs forward, and handed to the observers of a placed
    boundary's attempt. *)

type tape
(** The observed trace events of a paced run, in order. *)

val tape : unit -> tape * Trace.Event.sink
(** An empty tape and the sink that appends the {!observed} events to
    it. Attach the sink before {!Engine.start}, which latches the
    observers. *)

type t

val pace :
  ?tape:tape ->
  ?restart:(unit -> unit) ->
  save:(unit -> unit -> unit) ->
  Engine.session ->
  Engine.outcome * t
(** Drive the session to its end from where it stands, calling [save]
    and then checkpointing at every attempt top; [save ()] captures the
    state outside the machine and returns its restorer. With [tape],
    each checkpoint also notes how far the tape and the attached metrics
    sheet had got; a case counts no copied pages, as a from-power-on
    run takes no snapshots. Without it (the explorer), each checkpoint
    adds the pages it copied ({!Engine.checkpoint_pages_copied}) to the
    attached sheet's [snapshot/pages_copied]: the walk's own cost. The
    observers attached now (a sink, a sheet) are the ones the walk's
    boundaries are observed for. No failure may interrupt the paced
    run.

    [restart] is called whenever a batch starts simulating from an
    attempt top, after the top's payload is restored (the explorer
    zeroes the VM dispatch counts there, so that a boundary's counts run
    from its attempt top, as a re-simulation's would). *)

val first_charges : t -> int
(** The first checkpoint's charge count: 0 for a fresh session, since
    the engine charges nothing before its first attempt top. A session
    paced while running always records one. *)

val fail : ?sink:Trace.Event.sink -> t -> int -> Engine.step
(** [fail w k] fails the paced run at charge [k] and returns what
    {!Engine.run_until_boundary} would have: [Paused] after an aborted
    attempt or a failure that landed between tasks, [Finished] when a
    failure deferred past the final commit let the run end (or the
    watchdog gave up). Boundaries go forward: raises [Invalid_argument]
    unless [k] lies past {!first_charges} and the previous call's
    boundary, and within the paced run. A boundary that starts a batch
    sets its spacing: the batch also captures the boundaries of [k]'s
    attempt that lie [k - p], [2 * (k - p)], … past [k], where [p] is
    the previous call's boundary ({!first_charges} at the first call),
    so a sweep at a fixed stride finds each boundary in a batch.

    The observers get what a re-simulation from the attempt top would
    have handed them, its events up to the failure filtered to the
    {!observed} kinds. Without [sink], the machine's own sink receives
    the attempt's events from its top to the failure and its sheet the
    attempt's metering. With [sink] (on a taped walk), the tape up to
    the attempt top is replayed into [sink] first, [sink] becomes the
    machine's sink, and a copy of the sheet as it stood at the failure
    becomes its meter. The failure's own events and everything after
    reach the machine's sink unfiltered. *)

val top_us : t -> int
(** The clock at the top of the attempt the last boundary was placed
    in. *)
