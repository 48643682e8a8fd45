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
   takes chunks in ascending index order off the shared cursor.

   A finished result waits in its slot until every earlier index has
   finished, and is then folded and dropped, so only the results ahead
   of the oldest unfinished index are held. Whoever finds the head of
   the schedule ready becomes the folder and folds outside the lock;
   a worker finishing meanwhile only fills its slot, and the folder
   looks again under the lock before it stops. *)
let run n jobs chunk tick init f g acc =
  let cursor = Atomic.make 0 in
  let error = Atomic.make None in
  let slots = Array.make n None in
  let mu = Mutex.create () in
  let acc = ref acc and next = ref 0 and folding = ref false in
  let rec fold_ready () =
    match if !next < n then slots.(!next) else None with
    | Some v ->
        slots.(!next) <- None;
        incr next;
        Mutex.unlock mu;
        acc := g !acc v;
        Mutex.lock mu;
        fold_ready ()
    | None -> folding := false
  in
  let deposit i v =
    Mutex.lock mu;
    slots.(i) <- Some v;
    if not !folding then begin
      folding := true;
      fold_ready ()
    end;
    Mutex.unlock mu
  in
  let worker () =
    let state = lazy (init ()) in
    let rec loop () =
      let lo = Atomic.fetch_and_add cursor chunk in
      if lo < n && Atomic.get error = None then begin
        let hi = min n (lo + chunk) in
        (try
           let s = Lazy.force state in
           for i = lo to hi - 1 do
             deposit i (f s i);
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
  | None -> !acc

let fold ?jobs ?chunk ?(tick = no_tick) ~init n f g acc =
  if n < 0 then invalid_arg "Pool.fold: negative size";
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j -> if j < 1 then invalid_arg "Pool.fold: jobs must be positive" else j
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
    | Some c -> if c < 1 then invalid_arg "Pool.fold: chunk must be positive" else c
  in
  run n jobs chunk tick init f g acc

let map ?jobs ?chunk ?tick n f =
  let rev = fold ?jobs ?chunk ?tick ~init:ignore n (fun () i -> f i) (fun l v -> v :: l) [] in
  Array.of_list (List.rev rev)

let map_seeds ?jobs ?tick ~runs f = map ?jobs ?tick runs (fun i -> f ~seed:(i + 1))
