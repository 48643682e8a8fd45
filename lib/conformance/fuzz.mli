(** The fuzzing campaign: generate, judge, shrink, report.

    Case [i] of a campaign derives its generator seed as
    [hash2 (hash2 seed salt) i], each case is a pure function of that
    seed and the config, and {!Expkit.Pool.map} returns results in
    index order — so the report (and its JSON) is byte-identical for
    every [--jobs] value and across runs. Violating [Clean] cases are
    minimized with {!Shrink} (preserving a violation {!Judge.key} of
    the original), and can be saved as commented, re-runnable [.eio]
    reproducers ([easeio fuzz --replay FILE]). *)

type options = {
  count : int;
  seed : int;
  jobs : int;
  budget : int;  (** [Nth_charge] probes per variant per case *)
  max_shrink : int;  (** judge probes the shrinker may spend per counterexample *)
  ablate_regions : bool;
  ablate_semantics : bool;
  check_vm : bool;  (** shadow every judge run on the bytecode VM *)
}

val default_options : options

val config_of : options -> Judge.config
(** The judge configuration a campaign with these options uses for
    every case (and that [--replay] must reuse to reproduce). *)

type counterexample = {
  case_index : int;
  gen_seed : int;
  violations : Judge.violation list;
  original_stmts : int;
  shrunk_stmts : int;
  shrink_accepted : int;
  shrink_checks : int;
  shrunk : Lang.Ast.program;
}

type report = {
  options : options;
  cases : int;
  clean : int;  (** Clean-intent cases with no violations *)
  expected_diag : int;  (** near-miss cases whose diagnostic matched *)
  violating : int;
  total_runs : int;
  boundaries_total : int;
      (** summed reboot-space sizes of every judged case (all variants) *)
  boundaries_run : int;  (** [Nth_charge] probes actually executed *)
  strided : bool;  (** some case's budget forced a stride *)
  unsafe_baseline : (string * int) list;
      (** aggregated expected-unsafe baseline divergences per variant *)
  violation_kinds : (string * int) list;  (** sorted histogram of {!Judge.key}s *)
  counterexamples : counterexample list;
  snap : Obs.Snapshot.t;
      (** campaign metrics ([fuzz/*] counters plus a [fuzz/case_runs]
          histogram), built by the sequential result fold — a pure
          function of [options], byte-identical for any [jobs] *)
}

val run : ?progress:Obs.Progress.t -> options -> report
(** [progress] is ticked once per finished case (the caller calls
    {!Obs.Progress.finish}). *)

val passed : report -> bool
val to_json : report -> Trace.Json.t

val reproducer : options -> counterexample -> string
(** The committed-artifact form of a counterexample: header comments
    (seeds, violations, the replay command line) followed by the shrunk
    program source. *)

val save_reproducers : dir:string -> options -> report -> string list
(** Write one [fuzz_<genseed>.eio] per counterexample under [dir]
    (created if needed); returns the paths written. *)
