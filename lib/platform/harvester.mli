(** Ambient energy sources.

    A harvester yields instantaneous power (nJ per µs, i.e. mW) as a
    function of simulated time. The RF model reproduces the paper's
    real-world setup — a Powercast TX91501 3 W transmitter at 915 MHz
    charging the device across a line-of-sight distance — using Friis
    free-space path loss and a fixed rectifier efficiency. *)

type t

val constant : float -> t
(** [constant p] always yields [p] nJ/µs. *)

val rf : ?efficiency:float -> distance_inch:float -> unit -> t
(** Powercast-style RF harvesting from a 3 W transmitter at 915 MHz
    across [distance_inch] inches. Default: 55 % end-to-end
    conversion. *)

val trace : period_us:int -> float array -> t
(** [trace ~period_us samples] replays [samples] (nJ/µs), each lasting
    [period_us], looping; models recorded solar/thermal traces. *)

val power : t -> Units.time_us -> float
(** Instantaneous power at a given time, in nJ/µs. *)

val energy : t -> at:Units.time_us -> dur:Units.time_us -> float
(** Energy harvested over [dur] starting at [at] (left-rectangle
    integration per trace step; exact for constant sources). *)

val time_to_harvest : t -> at:Units.time_us -> nj:float -> Units.time_us option
(** Time needed to accumulate [nj] starting at [at]; [None] if the
    source yields no power for an unreasonably long horizon (dead
    spot). *)
