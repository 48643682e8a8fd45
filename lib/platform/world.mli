(** Deterministic physical environment.

    Sensors read a shared world whose quantities vary over simulated
    time. Values are computed by a stateless hash of (seed, time bucket),
    so a reading depends only on *when* it is taken — exactly the
    property that makes re-executed I/O dangerous: a task that re-reads a
    sensor after a power failure can observe a different value and take a
    different branch (the paper's "unsafe program execution" problem). *)

type t

val create : ?seed:int -> unit -> t

val temperature_dc : t -> Units.time_us -> int
(** Ambient temperature in tenths of a degree Celsius. Fluctuates around
    ~10 °C so that threshold branches flip across failures. *)

val humidity_pct : t -> Units.time_us -> int
(** Relative humidity, percent. *)

val pressure_pa10 : t -> Units.time_us -> int
(** Barometric pressure in tens of pascals. *)

val light_lux : t -> Units.time_us -> int

val image_pixel : t -> Units.time_us -> int -> int
(** [image_pixel w t i] is pixel [i] of the scene captured at time [t],
    in [0, 255]. The whole frame shares the capture time, so one capture
    is internally consistent. *)
