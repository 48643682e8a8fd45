(** The checkpoint walker, behind everything that places power
    failures at charge boundaries: resumed boundary sweeps, the
    conformance judge's VM shadow and the reboot-space explorer.

    {!pace} drives a session to its end, recording at every attempt top
    an {!Engine.checkpoint} and a caller payload (state outside the
    machine, such as a radio log). {!seek} then restores the latest
    checkpoint strictly before charge [k] and latches
    {!Platform.Failure.Nth_charge}[ k]: deadlines are absolute charge
    counts and checkpoints hold the charge counter, so the continuation
    fails exactly where a from-power-on run would. *)

type tape
(** The trace events of a paced run, in order. *)

val tape : unit -> tape * Trace.Event.sink
(** An empty tape and the sink that appends to it. Attach the sink
    before {!Engine.start}, which latches the observers. *)

type 'a t

val pace : ?tape:tape -> save:(unit -> 'a) -> Engine.session -> Engine.outcome * 'a t
(** Drive the session to its end from where it stands, calling [save]
    and then checkpointing at every attempt top. With [tape], each
    checkpoint also notes how far the tape and the attached metrics
    sheet had got, and is captured with the meter detached: a
    from-power-on run takes no snapshots, so their page accounting must
    not reach a case. *)

val first_charges : 'a t -> int
(** The first checkpoint's charge count: 0 for a fresh session, since
    the engine charges nothing before its first attempt top. A session
    paced while running always records one. *)

val seek : ?sink:Trace.Event.sink -> 'a t -> int -> 'a
(** [seek w k] restores the latest checkpoint strictly before charge
    [k], latches [Nth_charge k] and returns the checkpoint's payload.
    Seeks go forward: raises [Invalid_argument] if [k] is at or below
    {!first_charges} or the previous seek's checkpoint. With [sink] (on
    a taped walk), the tape up to the checkpoint is replayed into
    [sink], which becomes the machine's sink, and a copy of the sheet
    as it stood there becomes its meter. *)
