(** Fixed-size domain pool for deterministic parallel sweeps.

    The evaluation protocol runs each application once per seed; every
    run is a pure function of its seed (each constructs its own
    {!Platform.Machine.t}), so the sweep is embarrassingly parallel.
    This module fans an index range out over stdlib [Domain]s in chunks
    and folds the per-index results {e in index order}, as soon as
    every earlier index has finished, so any aggregate is computed in
    the same order as the sequential loop and is bit-identical to the
    [jobs = 1] oracle, while only the results that finished ahead of
    the oldest unfinished index are held. *)

val max_jobs : int
(** Upper cap on worker domains (spawning more domains than cores only
    adds scheduling overhead). *)

val default_jobs : unit -> int
(** [min (Domain.recommended_domain_count ()) max_jobs]; [1] on a
    single-core host, i.e. the sequential path. *)

val fold :
  ?jobs:int ->
  ?chunk:int ->
  ?tick:(unit -> unit) ->
  init:(unit -> 's) ->
  int ->
  ('s -> int -> 'a) ->
  ('acc -> 'a -> 'acc) ->
  'acc ->
  'acc
(** [fold ~init n f g acc] is [List.fold_left g acc [f s 0; …; f s (n-1)]],
    where each [f s i] runs on one of [jobs] worker domains with that
    domain's state [s].

    With [jobs = 1] (or [n <= 1]) everything runs in the calling
    domain, in index order — this is the sequential oracle. With
    [jobs > 1], [jobs - 1] extra domains are spawned and the calling
    domain participates; indices are handed out in contiguous chunks
    via an atomic cursor, so every index runs exactly once. A result is
    folded with [g] as soon as it and every earlier result are ready —
    by whichever worker finds them ready, one fold at a time and never
    under the pool's lock — and is dropped from the pool once folded:
    [g] sees the results in index order whatever the scheduling, and
    the pool holds only those that finished ahead of the oldest
    unfinished index. [f] must not touch mutable state shared across
    calls; [g] may keep a mutable accumulator, since its calls never
    overlap.

    Each domain that takes a chunk first calls [init ()] once, on
    itself, and passes the result to every [f s i] it runs. A domain
    that takes no chunk never calls [init], so with [jobs = 1] it runs
    once, on the calling domain, if [n > 0]. Each domain's indices
    arrive in ascending order, so its state can keep a forward-only
    cursor.

    The first exception raised by [init], [f] or [g] is re-raised (with
    its backtrace) after every worker has been joined; no worker takes
    a chunk after it, and [g] never sees an index past one whose [f]
    raised.

    When [Domain.recommended_domain_count () = 1] the sequential path is
    always taken, even for an explicit [jobs > 1]: on a single core,
    spawned domains only time-slice against each other and measurably
    lose. Results are identical either way.

    [tick] is invoked once after each completed index — progress
    reporting, not data flow: it sees no result and runs on whichever
    domain completed the index, so it must be thread-safe
    ([Obs.Progress.tick] is). Results are unaffected by it.

    [chunk] overrides the contiguous chunk length handed out per
    cursor fetch (default: [max 1 (n / (jobs * 8))]). Any positive
    value yields the same result — it only shifts the
    contention/balance trade-off — which is exactly what the qcheck
    properties in [test_pool] pin down.

    @raise Invalid_argument if [n < 0], [jobs < 1] or [chunk < 1]. *)

val map : ?jobs:int -> ?chunk:int -> ?tick:(unit -> unit) -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| f 0; …; f (n-1) |]]: {!fold} with no
    per-domain state, collecting the results in index order. *)

val map_seeds : ?jobs:int -> ?tick:(unit -> unit) -> runs:int -> (seed:int -> 'a) -> 'a array
(** [map_seeds ~runs f] is [map runs (fun i -> f ~seed:(i + 1))]: the
    paper protocol's 1-based seed range. *)
