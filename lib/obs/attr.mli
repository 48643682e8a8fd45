(** Attribution profiles: per-task and per-I/O-site
    time/energy/redundancy aggregated over one run or a whole sweep.

    A collector folds [Trace.Event] streams in place — attach {!sink}
    to each run of a campaign and only the aggregate is retained, so
    memory stays O(tasks + sites) however many runs the sweep has.
    Freeze with {!profile}; combine shards with {!merge}.

    Integer µs fields merge exactly and are checked by {!reconcile}
    against summed [Kernel.Metrics]; a single traced run is checked the
    same way by [Expkit.Run.check_trace]. Energy fields are floats, so
    profiles must be merged in a fixed fold order to stay
    deterministic (campaigns fold in schedule order, which
    [Expkit.Pool.fold] keeps for any [jobs]). *)

type task = {
  task : string;
  commits : int;
  aborts : int;
  app_us : int;
  ovh_us : int;
  wasted_us : int;
  app_nj : float;
  ovh_nj : float;
  wasted_nj : float;
}

type site = { site : string; kind : string; sem : string; execs : int; replays : int; skips : int }

type profile = {
  tasks : task list;  (** sorted by task name *)
  sites : site list;  (** sorted by site name *)
  boots : int;
  power_failures : int;
  runs : int;
  phases : (string * int) list;
      (** sorted by name; driver-level µs buckets (e.g. the explorer's
          [explore] phase) — emitted as extra flamegraph frames, not
          part of the simulated-time {!reconcile} *)
}

val empty : profile

type t
(** A mutable collector (single-domain use only). *)

val create : unit -> t

val sink : t -> Trace.Event.sink
(** The event consumer to install via [Platform.Machine.set_sink] (or
    compose with other sinks). Pure observation: folding an event
    never touches the machine. *)

val add_run : t -> unit
(** Count one completed run into the profile's [runs] field. *)

val add_phase : t -> string -> int -> unit
(** [add_phase t name us] accumulates driver-level time into the named
    phase bucket (shows up as a [prefix;phase;name] flamegraph frame). *)

val profile : t -> profile
(** Freeze the collector into a canonical (name-sorted) profile. The
    collector remains usable. *)

val merge : profile -> profile -> profile
(** Sum two profiles. Exact for the int fields; the float energy sums
    depend on fold order, so always merge shards in a fixed order —
    campaigns get theirs from [Expkit.Pool.fold], which folds results
    in index order however the pool schedules them. *)

val reconcile :
  profile ->
  app_us:int ->
  ovh_us:int ->
  wasted_us:int ->
  commits:int ->
  attempts:int ->
  (unit, string) result
(** Exact integer cross-check against summed [Kernel.Metrics] totals
    for the same set of runs. *)

val to_folded : ?prefix:string -> profile -> string
(** Folded-stack flamegraph text ([frames... weight] lines, one per
    [task × {app,overhead,wasted}] cell, weight in µs). Frame totals
    sum exactly to the µs totals {!reconcile} checks. *)

val perfetto_counters : (string * int array) list -> Trace.Json.t
(** Chrome/Perfetto counter tracks for per-cell series across a sweep.
    The timestamp axis is the logical cell index (not wall time), so
    the export is identical for any [--jobs]. *)

val to_json : profile -> Trace.Json.t
