(** The differential judge: one generated case, four checks.

    1. {b Diagnostics}: the analysis passes must be error-clean for a
       [Clean] case, or report exactly the intended code for an
       [Expect] near-miss.
    2. {b Compiler identities}: the source pretty-prints and re-parses
       to itself; the compiled output re-parses; compiling the
       compiled output is the identity (fixed point).
    3. {b Differential execution}: run the program continuously under
       all four runtime policies (per-variant goldens), then sweep
       [Failure.Nth_charge] boundaries per variant, demanding

       - final-NV-state equality with that variant's golden on every
         global {!Taint} does not excuse — enforced unconditionally for
         EaseIO, for Alpaca/InK only on DMA-free programs, and for
         Plain only on DMA-free, WAR-free programs (the baselines are
         {e expected} unsafe outside those envelopes; such mismatches
         are counted, not flagged);
       - cross-variant golden equality of untainted NV state against
         Plain, and of per-kind I/O execution counts when counts are
         schedule-independent;
       - the trace invariants: [Always] sites never [Skip]
         ({!Faultkit.Oracle.always_skip_watch}), DMA-site decisions
         carry only the runtime's legal (semantics, decision, reason)
         triples, and per-kind I/O execution counts never fall below
         the golden run's (every site executes at least as often as on
         continuous power — skipping can only ever suppress
         {e re}-execution);
       - forward progress (no livelock, no interpreter crash).
    4. {b Bytecode-VM equivalence}: every tree-walker run above is
       shadowed by the same run on the bytecode VM ({!Vm}), recycling
       one compiled arena per variant across the whole sweep — the
       production configuration. The VM must match the tree walker
       observably: crash message, outcome/metrics summary, charge
       count, event counters, committed state of every declared
       global, and the trace-visible I/O decision sequence. Any
       mismatch is a [vm-diverge] violation. Each shadow runs from
       power on under the tree walker's schedule, as the tree walker
       does, so a [vm-diverge] finding points at the VM alone; the
       checkpoint walker's captures are held against re-simulation by
       their own test, generated programs included. Disabled with
       [check_vm = false].

    A violation is anything the shipped pipeline must never produce;
    expected-unsafe baseline divergence is reported separately as
    statistics. *)

type config = {
  budget : int;  (** max [Nth_charge] probes per variant (boundaries are strided to fit) *)
  machine_seed : int;
  ablate_regions : bool;  (** test hook: disable regional privatization (the W0403 guard) *)
  ablate_semantics : bool;  (** test hook: force every annotation to [Always] *)
  check_vm : bool;  (** shadow every run on the bytecode VM (check 4) *)
}

val default_config : config

type violation = {
  vkind : string;
      (** stable kind: [intent], [errors], [roundtrip], [fixed-point],
          [golden], [livelock], [crash], [nv-state],
          [cross-variant-nv], [io-floor], [cross-variant-io],
          [always-skip], [dma-reason], [vm-diverge] *)
  variant : string;  (** runtime policy, or [""] when not applicable *)
  schedule : string;  (** failure spec ([nth:K]), or [""] *)
  detail : string;
}

val key : violation -> string
(** [vkind ^ "/" ^ variant] — what the shrinker preserves. *)

val describe : violation -> string
val violation_to_json : violation -> Trace.Json.t

type outcome = {
  diag_codes : string list;  (** sorted distinct codes, warnings included *)
  violations : violation list;
  runs : int;  (** machine executions this judgement performed *)
  boundaries_total : int;
      (** summed charge boundaries of the per-variant golden runs — the
          exact size of this case's reboot space *)
  boundaries_run : int;  (** [Nth_charge] probes actually executed *)
  strided : bool;  (** the budget forced a stride over some variant *)
  tainted_nv : string list;  (** NV globals excused from state equality *)
  unsafe_baseline : (string * int) list;
      (** per expected-unsafe variant: schedules whose NV state
          diverged — the paper's claim, observed, not a violation *)
}

val judge :
  ?stop_early:bool -> ?config:config -> ?vm_program:Lang.Ast.program -> Gen.case -> outcome
(** [stop_early] returns at the first violation (what shrinking
    needs); default [false] collects everything. Deterministic for a
    given (case, config). [vm_program] (default: the case's program) is
    what the VM shadow compiles; handing it another program is how the
    tests check that a VM diverging from the tree walker is reported
    ([vm-diverge]). *)
