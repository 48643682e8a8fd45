(** Energy-storage capacitor.

    Batteryless devices buffer harvested energy in a small capacitor and
    operate between two voltage thresholds. We model the usable energy
    window directly in nanojoules: the device boots when the stored level
    reaches [on_level] and dies when it falls to zero (the off
    threshold). *)

type t = { capacity : float; on_level : float; mutable level : float }
(** All-float record, stored flat. [level] is public so the machine
    can settle it from its integer drain (timer modes) and capture and
    restore it in snapshots without a cross-module call, which would box
    the level. Treat [capacity] and [on_level] as immutable and go
    through the functions below everywhere else. *)

val create : capacity_nj:float -> on_level_nj:float -> t
(** [create ~capacity_nj ~on_level_nj] makes a capacitor whose usable
    window holds [capacity_nj] and which turns the device on once charge
    reaches [on_level_nj]. The capacitor starts full. *)

val mf1_powercast : unit -> t
(** The paper's real-world setup: a 1 mF capacitor operating between
    ~3.3 V and ~1.8 V gives a usable window of roughly 3 mJ. Returns a
    fresh capacitor each call — the level is mutable per-device state. *)

val level : t -> float
val capacity : t -> float

val drain : t -> float -> [ `Ok | `Dead ]
(** [drain t nj] removes energy; returns [`Dead] when the level hits the
    off threshold (level clamps at 0). *)

val harvest : t -> float -> unit
(** [harvest t nj] adds energy, saturating at capacity. *)

val worst_case_recharge_us : t -> power_nj_per_us:float -> int
(** Worst-case time to recharge from empty to the boot threshold under a
    constant harvest rate — the longest possible off period. A [Timely]
    deadline shorter than this can never be met after an inopportune
    power failure (the W0402 lint). *)

val ready : t -> bool
(** Whether the level has reached the boot threshold. *)

val on_level : t -> float
(** The boot threshold. *)

val set_full : t -> unit

val set_ready : t -> unit
(** Raise the level to exactly the boot threshold (no-op if already
    above); models the end of a recharge phase. *)
