let max_jobs = 64
let default_jobs () = min (Domain.recommended_domain_count ()) max_jobs

(* Chunks amortize the atomic cursor without starving workers at the
   tail: a handful of chunks per worker balances load even when some
   seeds hit many more power failures than others. *)
let chunk_size n jobs = max 1 (n / (jobs * 8))

let no_tick () = ()

(* The calling domain is always one of the [jobs] workers, so
   [jobs = 1] spawns nothing and runs every index in order on it. Each
   worker builds its state with [init] only once it holds a chunk, and
   takes chunks in ascending index order off the shared cursor. *)
let fill results n jobs chunk tick init f =
  let cursor = Atomic.make 0 in
  let error = Atomic.make None in
  let worker () =
    let state = lazy (init ()) in
    let rec loop () =
      let lo = Atomic.fetch_and_add cursor chunk in
      if lo < n && Atomic.get error = None then begin
        let hi = min n (lo + chunk) in
        (try
           let s = Lazy.force state in
           for i = lo to hi - 1 do
             results.(i) <- Some (f s i);
             tick ()
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set error None (Some (e, bt))));
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_init ?jobs ?chunk ?(tick = no_tick) ~init n f =
  if n < 0 then invalid_arg "Pool.map: negative size";
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j -> if j < 1 then invalid_arg "Pool.map: jobs must be positive" else j
  in
  let jobs = min jobs (max 1 n) in
  (* On a single-core host extra domains only time-slice against each
     other and lose (calibration measured --jobs 4 at 2.4x slower than
     sequential on a 1-core container), so an explicit jobs request is
     overridden down to the sequential path. *)
  let jobs = if Domain.recommended_domain_count () = 1 then 1 else jobs in
  let chunk =
    match chunk with
    | None -> chunk_size n jobs
    | Some c -> if c < 1 then invalid_arg "Pool.map: chunk must be positive" else c
  in
  let results = Array.make n None in
  fill results n jobs chunk tick init f;
  Array.map (function Some v -> v | None -> assert false) results

let map ?jobs ?chunk ?tick n f = map_init ?jobs ?chunk ?tick ~init:ignore n (fun () i -> f i)
let map_seeds ?jobs ?tick ~runs f = map ?jobs ?tick runs (fun i -> f ~seed:(i + 1))
