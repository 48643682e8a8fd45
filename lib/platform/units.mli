(** Units used throughout the simulator.

    Time is measured in integer microseconds. The simulated MCU is an
    MSP430FR5994 running at 1 MHz, so one CPU cycle is exactly one
    microsecond. Energy is charged in integer picojoules, so sums of
    charges are exact and independent of order, and reported in
    nanojoules. *)

type time_us = int
(** Simulated time, in microseconds. *)

type energy_pj = int
(** Charged energy, in picojoules. *)

type energy_nj = float
(** Reported energy, in nanojoules. *)

val us_of_ms : int -> time_us
(** [us_of_ms ms] converts milliseconds to microseconds. *)

val ms_of_us : time_us -> float
(** [ms_of_us t] converts microseconds to (fractional) milliseconds. *)

val nj_of_pj : energy_pj -> energy_nj
(** [nj_of_pj e] converts picojoules to nanojoules (one correctly
    rounded division). *)

val uj_of_nj : energy_nj -> float
(** [uj_of_nj e] converts nanojoules to microjoules. *)

val pp_time : Format.formatter -> time_us -> unit
(** Pretty-print a duration as milliseconds with two decimals. *)

val pp_energy : Format.formatter -> energy_nj -> unit
(** Pretty-print an energy amount as microjoules with two decimals. *)
