(** Packet radio.

    Transmission is the most energy-hungry operation on the board; the
    paper's headline example of wasted I/O is re-sending a packet that
    already went out before the power failure. Sent packets land in a
    receiver-side log that survives the device's power failures (the
    base station has mains power), so tests can observe duplicate
    transmissions.

    The machine's fault plan ([Platform.Faults]) can mark transmissions
    as dropped in flight: the full TX cost is paid, no packet arrives,
    and {!Tx_dropped} is raised for the retry policy
    ([Runtimes.Manager.with_backoff]) to handle. *)

open Platform

exception Tx_dropped of int
(** An injected TX drop: the payload carries the 1-based occurrence
    index of the faulted transmission. *)

type t

val create : ?log_cap:int -> Machine.t -> t
(** [log_cap] bounds the retained receiver log to the newest [cap]
    packets (unbounded by default); {!packets_sent} still counts every
    completed transmission. Raises [Invalid_argument] if [cap <= 0]. *)

val reset : t -> unit
(** Empty the receiver log and the sent counter; pairs with
    {!Platform.Machine.reset} when an arena is recycled between runs. *)

type snapshot
(** The receiver-side state (log + counters), captured in O(1): log
    entries are immutable and payloads are copied at push time, so a
    snapshot safely shares the list spine. *)

val snapshot : t -> snapshot
val same : snapshot -> snapshot -> bool
(** Whether two captures hold the same log (times and payloads) and
    counters. *)

val restore : t -> snapshot -> unit
(** Pair with {!Platform.Machine.restore_snapshot} when rolling a run
    back to a checkpoint. *)

val send : t -> int array -> unit
(** Transmit a packet; ~2 ms preamble + 40 µs/word, high energy. Bumps
    ["io:Send"]. The packet is appended to the receiver log only when
    the transmission completes. Raises {!Tx_dropped} if the machine's
    fault plan drops this transmission (after charging the full cost). *)

val send_from : t -> src:Loc.t -> words:int -> unit
(** Transmit straight out of memory (charged reads). *)

val log : t -> (Units.time_us * int array) list
(** Received packets, oldest first (at most [log_cap] newest when
    capped). *)

val packets_sent : t -> int
(** Completed transmissions, all-time — O(1), unaffected by
    [log_cap] eviction. *)
