(** Power-failure models.

    The paper's controlled experiments emulate power failures with an
    MCU timer firing a soft reset after a uniformly distributed on-time
    in [5 ms, 20 ms] (§5.1); the real-world experiment (Fig. 13) instead
    dies when the capacitor is exhausted and reboots after it recharges
    from the RF harvester. Both models are provided, plus [No_failures]
    for continuous-power golden runs, and two {e deterministic}
    schedules used by fault-injection campaigns ({!At_times},
    {!Nth_charge}) that place the failure at an exact point of the
    execution instead of sampling it. *)

type spec =
  | No_failures  (** continuous power *)
  | Timer of {
      on_min_us : int;
      on_max_us : int;  (** uniform on-time before the soft reset *)
      off_min_us : int;
      off_max_us : int;  (** uniform off-time before reboot *)
    }
  | Energy_driven
      (** die when the capacitor empties; off-time = recharge time *)
  | At_times of int list
      (** die the first time simulated time reaches each listed µs
          instant. Entries that fall inside an off interval are
          unreachable and are silently dropped at the next boot.
          Off-time is a fixed 5 ms, as after an [Nth_charge] failure,
          so deterministic runs stay a pure function of (spec, seed). *)
  | Nth_charge of int
      (** die during the N-th (1-based) {!Machine.charge} call of the
          run, once. Charge calls are the simulator's finest-grained
          failure boundaries, so sweeping N over a clean run's charge
          count visits every place a power failure can strike. *)

val paper_timer : spec
(** The §5.1 emulation: on-time U[5 ms, 20 ms], off-time U[2 ms, 15 ms].
    The off-time range straddles the 10 ms freshness windows used by the
    Timely benchmarks, so some failures violate timeliness and some do
    not — as in the paper's testbed. *)

type t

val create : spec -> t
val spec : t -> spec

val arm : t -> Rng.t -> now:Units.time_us -> unit
(** Called at each boot: draws the next reset deadline (timer model) or
    advances to the next scheduled instant ([At_times]). *)

val fires : t -> now:Units.time_us -> charges:int -> bool
(** Whether the model kills the machine at this charge: [now] has
    passed the armed deadline (timer / [At_times]) or [charges] — the
    machine's cumulative {!Machine.charge} count — reached the
    [Nth_charge] target. [Nth_charge] is a one-shot latch: it fires at
    most once per run. Always [false] for [No_failures] and
    [Energy_driven] (the latter dies by capacitor drain instead). *)

val quiet : t -> now:Units.time_us -> charges:int -> bool
(** [quiet t ~now ~charges] holds when {!fires} would answer [false] at
    every charge whose clock and cumulative count stay at or below
    [now] and [charges]: the armed deadline lies past [now] and the
    [Nth_charge] target past [charges]. Pure — no latch moves — so a
    caller can apply a run of charges ending there as one step. *)

val energy_driven : t -> bool

val save : t -> int * int * int list
(** The model's complete mutable state (armed deadline, [Nth_charge]
    target, pending [At_times] instants) — machine snapshots capture it
    so a restored run re-fires exactly like the original. *)

val load : t -> int * int * int list -> unit
(** Restore state captured by {!save} (specs must match). *)

val off_time : t -> Rng.t -> Units.time_us
(** Off-duration to apply on a (non-energy-driven) reboot. *)

(** {1 Spec syntax}

    [none | paper | energy | timer:ON_MIN,ON_MAX,OFF_MIN,OFF_MAX |
    at:T1,T2,... | nth:N] — used by the CLI [--failure] option and
    campaign reports; [of_string] and [to_string] round-trip. *)

val to_string : spec -> string

val of_string : string -> (spec, string) result
(** Parse the syntax above; [Error] carries a human-readable reason. *)
