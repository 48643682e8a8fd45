(** Exhaustive reboot-space exploration.

    A boundary sweep ({!Faultkit.Campaign}) checks every {e single}
    power failure from power on. The explorer walks the full tree of
    reboot points up to a reboot-count [depth]: each post-reboot state
    is a node. Each node's continuation is paced through a
    {!Kernel.Walker}, and each of its children is reached by failing
    that walk at the child's boundary ({!Kernel.Walker.fail}, from the
    machine the walker captured there), rather than by replaying from
    power on. Every finished run gets the
    campaign's {!Faultkit.Campaign.verdict} against the clean run's
    golden NV image, and findings print with
    {!Faultkit.Campaign.violation_json}. At [depth = 1] without pruning
    the findings are exactly the failed cases of the exhaustive
    boundary sweep (tested).

    Convergent states — equal under {!Faultkit.Seen} (machine behavior
    confirmed word for word, engine watchdog counter, packets received),
    the equivalence resumed sweeps share continuations by — are visited
    once, so pruning never drops a violation; it is what lets a
    [10^4]-boundary space collapse to the (much smaller) set of
    behaviorally distinct post-reboot states. Results are pure functions
    of (app, variant, seed, depth, max_states): the walk is sequential
    and deterministic.

    In the spirit of "Towards a Formal Foundation of Intermittent
    Computing" (Surbatovich et al., OOPSLA 2020), which defines
    correctness over {e all} possible reboot placements rather than
    sampled schedules. *)

type violation = Faultkit.Campaign.violation =
  | Livelock of string  (** stuck task name *)
  | App_incorrect
  | Nv_mismatch of Faultkit.Oracle.mismatch list
  | Always_skipped of string list

type finding = {
  reboots : int list;
      (** the charge indices of the injected reboots, in schedule
          order: [[k1; k2]] means "fail at charge k1, then at k2" *)
  violations : violation list;
}

type report = {
  app : string;
  variant : Apps.Common.variant;
  seed : int;
  depth : int;  (** reboot-count bound the walk ran with *)
  boundaries : int;  (** clean-run charge count (depth-1 space size) *)
  states : int;  (** nodes visited (continuations run and judged) *)
  pruned : int;  (** children skipped as behaviorally convergent *)
  truncated : bool;  (** [max_states] cut the walk short *)
  findings : finding list;
  snap : Obs.Snapshot.t;
      (** metric snapshot of the whole walk ([explore/states],
          [explore/pruned], [resume/prefix_us_saved] (the clock at each
          child's attempt top), [snapshot/pages_copied] (by the walks'
          attempt-top checkpoints), VM dispatch counts, ...) *)
  profile : Obs.Attr.profile;
      (** attribution over every simulated run and every child's
          positioning (from its attempt top through the reboot), with
          the positioning time in a flamegraph-visible [explore] phase *)
}

val explore :
  ?depth:int ->
  ?max_states:int ->
  ?prune:bool ->
  ?ablate_regions:bool ->
  ?ablate_semantics:bool ->
  ?progress:Obs.Progress.t ->
  Apps.Common.spec ->
  Apps.Common.variant ->
  seed:int ->
  report
(** Walk the reboot space of an app (via its [session] runner; raises
    [Invalid_argument] if it has none, and [Failure] if the clean run
    itself fails its check). Defaults: [depth = 1] (exhaustive
    single-failure enumeration — the boundary sweep, shared-prefix
    style), no state cap, pruning on. [depth = 0] just runs and judges
    the clean continuation. [max_states] bounds visited nodes (the
    report is marked [truncated]); [prune:false] re-explores
    convergent states (slow — meant for the soundness property test).
    [progress] is ticked once per visited state. The ablation hooks
    mirror the fuzzer's: [ablate_semantics] forces every I/O
    annotation to [Always], [ablate_regions] disables regional
    privatization — exploring an ablated pipeline must surface
    findings that the shipped one does not. *)

val passed : report -> bool

val to_json : report -> Trace.Json.t
(** Stable JSON: exact coverage counts plus at most 20 detailed
    findings ([findings_count] always carries the true number). *)

val flamegraph : report -> string
(** Folded-stack flamegraph of the walk's attribution profile,
    including the [explore] re-positioning phase frame. *)
