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

val nj_of_pj : energy_pj -> energy_nj
(** [nj_of_pj e] converts picojoules to nanojoules (one correctly
    rounded division). *)
