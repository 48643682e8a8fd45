(** Per-kind I/O execution counts of a run.

    The "redundant I/O" metric (Table 4) is the difference between the
    I/O executions an intermittent run performed and the number a
    continuous-power (golden) run needs; [Expkit.Run.redundant_vs_golden]
    computes it from these counts. *)

open Platform

val io_executions : Machine.t -> (string * int) list
(** Event counters whose name starts with ["io:"] — one entry per
    peripheral operation kind, value = number of executions. *)
