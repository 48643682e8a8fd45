(** Packet radio.

    Transmission is the most energy-hungry operation on the board; the
    paper's headline example of wasted I/O is re-sending a packet that
    already went out before the power failure. Sent packets land in a
    receiver-side log that survives the device's power failures (the
    base station has mains power), so tests can observe duplicate
    transmissions. *)

open Platform

type t

val create : Machine.t -> t

val reset : t -> unit
(** Empty the receiver log and the sent counter; pairs with
    {!Platform.Machine.reset} when an arena is recycled between runs. *)

type snapshot
(** The receiver-side state (log + counters), captured in O(1): log
    entries are immutable and payloads are copied at push time, so a
    snapshot safely shares the list spine. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Pair with {!Platform.Machine.restore_snapshot} when rolling a run
    back to a checkpoint. *)

val send : t -> int array -> unit
(** Transmit a packet; ~2 ms preamble + 40 µs/word, high energy. Bumps
    ["io:Send"]. The packet is appended to the receiver log only when
    the transmission completes. *)

val send_from : t -> src:Loc.t -> words:int -> unit
(** Transmit straight out of memory (charged reads). *)

val log : t -> (Units.time_us * int array) list
(** Received packets, oldest first. *)

val packets_sent : t -> int
(** Completed transmissions, all-time — O(1). *)
