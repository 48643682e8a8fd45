(** Per-run measurements and multi-seed aggregation.

    The paper executes each application 1000 times with pseudo-random
    seeds and reports averages (§5.3); {!average} implements that
    protocol over any single-run function. *)

open Platform

type one = {
  completed : bool;
  correct : bool option;
      (** app-check verdict; gave-up runs are folded to [Some false]
          here so aggregate incorrect-run counting is unchanged (the
          raw engine outcome reports [None] for them) *)
  gave_up : bool;  (** engine stopped before the app finished *)
  stuck_task : string option;  (** task being attempted at give-up *)
  total_us : int;  (** wall clock, including off intervals *)
  app_us : int;  (** useful application work *)
  ovh_us : int;  (** useful runtime overhead *)
  wasted_us : int;  (** work lost to power failures *)
  energy_nj : float;
  pf : int;  (** power failures *)
  commits : int;  (** committed task attempts *)
  attempts : int;  (** all task attempts (committed + aborted) *)
  io : (string * int) list;  (** per-kind I/O executions *)
}

val of_outcome : Machine.t -> Kernel.Engine.outcome -> one

type agg = {
  runs : int;
  avg_total_ms : float;
  avg_app_ms : float;
  avg_ovh_ms : float;
  avg_wasted_ms : float;
  avg_energy_uj : float;
  avg_pf : float;
  avg_io : float;  (** total I/O executions per run *)
  avg_redundant_io : float;  (** executions beyond the continuous-power need *)
  correct_runs : int;
  incorrect_runs : int;
}

val average :
  ?jobs:int ->
  ?tick:(unit -> unit) ->
  runs:int ->
  golden:(unit -> one) ->
  (seed:int -> one) ->
  agg
(** [average ~runs ~golden f] runs [f] for seeds 1..runs and aggregates;
    redundant I/O is measured against one golden (continuous-power)
    execution. The sweep is fanned out over [jobs] domains (default
    {!Pool.default_jobs}; [1] is the sequential oracle) via {!Pool};
    per-run results are folded in seed order, so the aggregate is
    bit-identical for every [jobs]. [f] must construct all of its
    mutable state — the [Machine], runtime, application — per call. *)

val redundant_vs_golden : golden:one -> one -> int
(** Per-kind I/O executions beyond the golden (continuous-power) run's
    need, summed: [Σ max 0 (n - golden_n)]. The one definition of
    redundant I/O: {!average} aggregates it, and single runs (CLI,
    trace validation) report it. *)

val check_trace : one -> Trace.Event.t list -> (Obs.Attr.profile, string) result
(** [check_trace one events] folds one run's trace through an
    {!Obs.Attr} collector and checks it against the run's own
    accounting: the µs buckets, commits and attempts through
    {!Obs.Attr.reconcile}, and the trace's last [Count] event per
    ["io:"] kind against [one.io]. Returns the one-run profile, or the
    first discrepancy. *)
