(** Fixed-size domain pool for deterministic parallel sweeps.

    The evaluation protocol runs each application once per seed; every
    run is a pure function of its seed (each constructs its own
    {!Platform.Machine.t}), so the sweep is embarrassingly parallel.
    This module fans a seed range out over stdlib [Domain]s in chunks
    and returns the per-seed results {e in input order}, so any fold
    over them is performed in the same order as the sequential loop and
    aggregates are bit-identical to the [jobs = 1] oracle. *)

val max_jobs : int
(** Upper cap on worker domains (spawning more domains than cores only
    adds scheduling overhead). *)

val default_jobs : unit -> int
(** [min (Domain.recommended_domain_count ()) max_jobs]; [1] on a
    single-core host, i.e. the sequential path. *)

val map : ?jobs:int -> ?chunk:int -> ?tick:(unit -> unit) -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| f 0; …; f (n-1) |]]. With [jobs = 1] (or
    [n <= 1]) everything runs in the calling domain, in index order —
    this is the sequential oracle. With [jobs > 1], [jobs - 1] extra
    domains are spawned and the calling domain participates; indices
    are handed out in contiguous chunks via an atomic cursor and each
    worker writes only its own slots, so every index runs exactly once
    and the result array is in index order regardless of scheduling.
    [f] must not touch mutable state shared across calls. The first
    exception raised by any call is re-raised (with its backtrace)
    after all workers have been joined.

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
    value yields the same results — it only shifts the
    contention/balance trade-off — which is exactly what the qcheck
    property in [test_pool] pins down.

    @raise Invalid_argument if [n < 0], [jobs < 1] or [chunk < 1]. *)

val map_init :
  ?jobs:int ->
  ?chunk:int ->
  ?tick:(unit -> unit) ->
  init:(unit -> 's) ->
  int ->
  ('s -> int -> 'a) ->
  'a array
(** [map_init ~init n f] is {!map} with per-domain state: each domain
    that takes a chunk first calls [init ()] once, on itself, and
    passes the result to every [f s i] it runs. A domain that takes no
    chunk never calls [init], so with [jobs = 1] it runs once, on the
    calling domain, if [n > 0]. Each
    domain's indices arrive in ascending order, so state can keep a
    forward-only cursor. An exception from [init] is re-raised like
    one from [f], after every worker has been joined. [map] is
    [map_init ~init:ignore]. *)

val map_seeds : ?jobs:int -> ?tick:(unit -> unit) -> runs:int -> (seed:int -> 'a) -> 'a array
(** [map_seeds ~runs f] is [map runs (fun i -> f ~seed:(i + 1))]: the
    paper protocol's 1-based seed range. *)
