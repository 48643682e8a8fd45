(** Post-reboot states already reached, each with a value: the one
    equivalence behind the explorer's pruning and the resumed sweep's
    shared continuations.

    Two post-reboot states are the same state when they hold the same
    machine behavior ({!Platform.Machine.behavior_hash}, confirmed word
    for word by {!Platform.Machine.same_behavior}), the same engine
    watchdog counter ({!Kernel.Engine.stalled}) and the same packets at
    the receiver (count and payloads). From there they evolve
    identically except through the clock, whose reads
    ({!Platform.Machine.clock_reads}) a caller watches itself. What the
    key leaves out (the clock, energy accounts, charge, boot, failure
    and event counts, the packets' timestamps) accumulates or only
    stamps observations: the regions an app declares [nv_volatile].
    This is the equivalence "Towards a Formal Foundation of Intermittent
    Computing" (Surbatovich et al.) defines correctness over. *)

type 'a t

type miss
(** A state not found, captured where it was looked up. *)

type 'a found = Hit of 'a | Miss of miss

val create : unit -> 'a t

val find : 'a t -> Kernel.Engine.session -> Periph.Radio.t -> 'a found
(** The value stored for the state the session and its radio stand at,
    or that state, captured ({!Platform.Machine.snapshot}) for {!add}. *)

val add : 'a t -> miss -> 'a -> unit
(** Store a value for a captured state. *)
