(** Correctness oracles for fault-injection campaigns.

    The simulator's determinism contract — every run is a pure function
    of (spec, seed) — turns correctness checking into {e differential}
    testing: run the app once on continuous power ({!capture} the
    golden state), then demand that every failure schedule commits the
    same final non-volatile image, modulo regions that legitimately
    depend on {e when} the world was sampled (the app's
    [Common.spec.nv_volatile] list) and runtime-internal bookkeeping
    (see {!nv_diff}). A surviving difference is exactly the class
    of bug EaseIO's safety claims rule out: WAR-inconsistent committed
    state from a skipped or re-executed I/O. *)

open Platform

type golden = {
  fram : Memory.image;  (** full committed FRAM image (COW snapshot) *)
  entries : Layout.entry list;  (** FRAM allocation map at capture *)
  charges : int;
      (** total {!Machine.charge} calls of the clean run — the probe
          an exhaustive [Nth_charge] boundary sweep iterates over *)
  total_us : int;  (** clean-run duration (bounds [At_times] draws) *)
}

val capture : Machine.t -> golden
(** Snapshot a machine after a completed run (uncharged). Call from a
    run's [probe] hook. *)

type mismatch = { region : string; offset : int; expected : int; actual : int }

val pp_mismatch : Format.formatter -> mismatch -> unit

val nv_diff : ?extra_volatile:string list -> golden:golden -> Machine.t -> mismatch list
(** Compare the machine's final FRAM image against [golden], skipping
    regions whose name starts with any of [extra_volatile] (the app's
    [nv_volatile]) or with the prefixes [Lang.Footprint] counts as
    runtime overhead: ["__"] (source transform: locks, timestamps,
    privatization scratch), ["rt."] (Alpaca shadows, InK second
    buffers/indices) and ["easeio."] (privatization buffers, site
    flags), which hold attempt-local working state that lawfully
    differs across schedules.
    Reports at most one mismatch per region and at most 16 total; an
    allocation-map divergence is reported as a single ["(layout)"]
    pseudo-mismatch. Empty result = oracle passed. Uncharged: call
    after the engine returns. *)

val always_skip_watch : unit -> Trace.Event.sink * (unit -> string list)
(** The [Always]-re-execution oracle: a streaming trace sink that
    records every I/O site with [Always] semantics whose decision was
    [Skip] — which the semantics forbids, ever. Returns the sink (pass
    to the run) and a getter for the violating site names, in order. *)
