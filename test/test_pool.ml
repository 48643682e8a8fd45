(* Tests for the domain-parallel experiment engine: Pool ordering,
   exactly-once execution and the in-order fold, parallel-vs-sequential aggregate equality,
   and run determinism (the property parallelization must not break). *)

(* {1 Pool} *)

let test_pool_empty () =
  Alcotest.(check int) "empty" 0 (Array.length (Expkit.Pool.map ~jobs:4 0 (fun i -> i)))

let test_pool_more_jobs_than_work () =
  let out = Expkit.Pool.map ~jobs:8 3 (fun i -> i * i) in
  Alcotest.(check (array int)) "tiny input" [| 0; 1; 4 |] out

let test_pool_rejects_bad_args () =
  (match Expkit.Pool.map ~jobs:0 4 (fun i -> i) with
  | _ -> Alcotest.fail "expected invalid_arg for jobs=0"
  | exception Invalid_argument _ -> ());
  match Expkit.Pool.map (-1) (fun i -> i) with
  | _ -> Alcotest.fail "expected invalid_arg for n<0"
  | exception Invalid_argument _ -> ()

let test_pool_propagates_exception () =
  match Expkit.Pool.map ~jobs:3 64 (fun i -> if i = 41 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the worker exception to surface"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let prop_pool_order_and_exactly_once =
  QCheck.Test.make ~count:60 ~name:"Pool.map preserves order and runs every index exactly once"
    QCheck.(pair (int_bound 200) (int_range 1 6))
    (fun (n, jobs) ->
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      let out =
        Expkit.Pool.map ~jobs n (fun i ->
            Atomic.incr calls.(i);
            (i * 7) + 3)
      in
      Array.length out = n
      && Array.for_all (fun c -> Atomic.get c = 1) calls
      && Array.for_all (fun b -> b)
           (Array.mapi (fun i v -> v = (i * 7) + 3) out))

(* Arbitrary jobs AND chunk sizes (chunk 1 = maximal work stealing,
   chunk >= n = one worker takes everything): results and exactly-once
   must hold for every combination, not just the default chunking. *)
let prop_pool_chunk_invariant =
  QCheck.Test.make ~count:60 ~name:"Pool.map is order-preserving for any jobs x chunk"
    QCheck.(triple (int_bound 200) (int_range 1 6) (int_range 1 64))
    (fun (n, jobs, chunk) ->
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      let out =
        Expkit.Pool.map ~jobs ~chunk n (fun i ->
            Atomic.incr calls.(i);
            (i * 5) + 1)
      in
      Array.length out = n
      && Array.for_all (fun c -> Atomic.get c = 1) calls
      && Array.for_all (fun b -> b) (Array.mapi (fun i v -> v = (i * 5) + 1) out))

(* The fold sees the results in index order for every jobs x chunk
   combination: a non-commutative fold (list cons) gives exactly the
   sequential [List.fold_left]. *)
let prop_pool_fold_in_order =
  QCheck.Test.make ~count:60 ~name:"Pool.fold = List.fold_left, for any jobs x chunk"
    QCheck.(triple (int_bound 200) (int_range 1 6) (int_range 1 64))
    (fun (n, jobs, chunk) ->
      let f i = (i * 5) + 1 and cons l v = v :: l in
      Expkit.Pool.fold ~jobs ~chunk ~init:ignore n (fun () i -> f i) cons []
      = List.fold_left cons [] (List.init n f))

(* [fold ~init] over the same jobs x chunk grid: results in index order,
   every index exactly once, [init] at most once per domain and only on
   a domain that then runs indices (chunk >= n leaves the other domains
   without one), and each index sees the state its own domain built. *)
let prop_pool_fold_init_invariant =
  QCheck.Test.make ~count:60 ~name:"Pool.fold inits once per working domain, for any jobs x chunk"
    QCheck.(triple (int_bound 200) (int_range 1 6) (int_range 1 64))
    (fun (n, jobs, chunk) ->
      let m = Mutex.create () in
      let inits = Hashtbl.create 8 and workers = Hashtbl.create 8 in
      let note tbl =
        Mutex.protect m (fun () ->
            let d = Domain.self () in
            Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
      in
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      let out =
        Expkit.Pool.fold ~jobs ~chunk
          ~init:(fun () ->
            note inits;
            Domain.self ())
          n
          (fun owner i ->
            Atomic.incr calls.(i);
            note workers;
            ((i * 5) + 1, owner = Domain.self ()))
          (fun l v -> v :: l)
          []
      in
      let domains tbl = List.sort compare (List.of_seq (Hashtbl.to_seq_keys tbl)) in
      List.rev out = List.init n (fun i -> ((i * 5) + 1, true))
      && Array.for_all (fun c -> Atomic.get c = 1) calls
      && Hashtbl.fold (fun _ k ok -> ok && k = 1) inits true
      && domains inits = domains workers)

(* An exception from case [bad] surfaces only after every worker has
   been joined, and the fold stops short of it: it has seen a prefix
   of the indices, in order, and nothing at or past [bad]. *)
let prop_pool_fold_stops_at_missing =
  QCheck.Test.make ~count:60 ~name:"Pool.fold never folds past an index that raised"
    QCheck.(quad (int_range 1 200) (int_range 1 6) (int_range 1 64) small_nat)
    (fun (n, jobs, chunk, b) ->
      let bad = b mod n in
      let running = Atomic.make 0 in
      let seen = ref [] in
      match
        Expkit.Pool.fold ~jobs ~chunk ~init:ignore n
          (fun () i ->
            Atomic.incr running;
            Fun.protect
              ~finally:(fun () -> Atomic.decr running)
              (fun () -> if i = bad then failwith "boom" else i))
          (fun () i -> seen := i :: !seen)
          ()
      with
      | () -> false
      | exception Failure _ ->
          let seen = List.rev !seen in
          Atomic.get running = 0
          && List.length seen <= bad
          && seen = List.init (List.length seen) Fun.id)

(* An exception from [init] surfaces like one from [f]: only after
   every worker has been joined, so no index is still running when it
   does and none starts afterwards. *)
let test_pool_init_exception_after_join () =
  let home = Domain.self () in
  let running = Atomic.make 0 and ran = Atomic.make 0 in
  match
    Expkit.Pool.fold ~jobs:3 ~chunk:1 64
      ~init:(fun () ->
        if Domain.self () = home then begin
          (* let the other workers get into [f] first *)
          Unix.sleepf 0.01;
          failwith "init boom"
        end)
      (fun () i ->
        Atomic.incr running;
        Unix.sleepf 0.001;
        Atomic.decr running;
        Atomic.incr ran;
        i)
      (fun () _ -> ())
      ()
  with
  | () -> Alcotest.fail "expected the init exception to surface"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "init boom" msg;
      Alcotest.(check int) "no index still running" 0 (Atomic.get running);
      let settled = Atomic.get ran in
      Unix.sleepf 0.02;
      Alcotest.(check int) "no index runs after the raise" settled (Atomic.get ran)

let test_pool_rejects_bad_chunk () =
  match Expkit.Pool.map ~jobs:2 ~chunk:0 4 (fun i -> i) with
  | _ -> Alcotest.fail "expected invalid_arg for chunk=0"
  | exception Invalid_argument _ -> ()

(* Regression: jobs=1 must run in the calling domain, spawning
   nothing — that is what lets [Domain.DLS]-keyed state (the VM
   arenas) survive a sequential sweep, and what a single-core host
   falls back to. *)
let test_pool_jobs1_sequential_fallback () =
  let self = Domain.self () in
  let seen = Expkit.Pool.map ~jobs:1 16 (fun i -> (i, Domain.self ())) in
  Array.iteri
    (fun i (j, d) ->
      Alcotest.(check int) "index" i j;
      Alcotest.(check bool) "jobs=1 stays on the calling domain" true (d = self))
    seen

(* {1 Parallel sweep == sequential sweep}

   A failure-heavy workload (the temperature app under the paper's
   timer failure model) swept with jobs=4 must produce the exact agg
   record of the sequential sweep: same seeds, per-run results placed
   in seed order, floats folded in the same order. *)

let sweep jobs =
  Expkit.Run.average ~jobs ~runs:12
    ~golden:(fun () ->
      Apps.Uni.temp.Apps.Common.run Apps.Common.Easeio ~failure:Platform.Failure.No_failures
        ~seed:0)
    (fun ~seed ->
      Apps.Uni.temp.Apps.Common.run Apps.Common.Easeio
        ~failure:Expkit.Experiments.paper_failures ~seed)

let test_parallel_equals_sequential () =
  let s = sweep 1 and p = sweep 4 in
  Alcotest.(check bool) "agg records identical" true (s = p);
  Alcotest.(check bool) "failure-heavy (sweep exercised reboots)" true (s.Expkit.Run.avg_pf > 0.)

let test_breakdown_parallel_equals_sequential () =
  let rows jobs =
    Expkit.Experiments.breakdown ~jobs ~runs:8
      (fun ~variant ~failure ~seed -> Apps.Fir.spec.Apps.Common.run variant ~failure ~seed)
      ~label:Apps.Common.variant_name
      [ Apps.Common.Alpaca; Apps.Common.Easeio ]
  in
  Alcotest.(check bool) "breakdown rows identical" true (rows 1 = rows 4)

(* {1 Determinism regression}

   Two full runs of the same spec with the same seed must produce
   identical outcome records — this is what makes per-worker Machine
   isolation sound, and it would break if parallelization ever
   introduced shared mutable state into the run closures. *)

let test_run_deterministic () =
  List.iter
    (fun variant ->
      let run () =
        Apps.Uni.dma.Apps.Common.run variant ~failure:Expkit.Experiments.paper_failures ~seed:42
      in
      let a = run () and b = run () in
      Alcotest.(check bool)
        (Printf.sprintf "identical outcome records (%s)" (Apps.Common.variant_name variant))
        true (a = b))
    [ Apps.Common.Alpaca; Apps.Common.Easeio ]

let test_run_deterministic_under_domains () =
  (* same seed evaluated on different domains of one parallel sweep *)
  let ones =
    Expkit.Pool.map ~jobs:4 8 (fun _ ->
        Apps.Uni.temp.Apps.Common.run Apps.Common.Easeio
          ~failure:Expkit.Experiments.paper_failures ~seed:7)
  in
  Array.iter
    (fun one -> Alcotest.(check bool) "domain-independent result" true (one = ones.(0)))
    ones

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "pool"
    [
      ( "pool",
        [
          tc "empty input" `Quick test_pool_empty;
          tc "more jobs than work" `Quick test_pool_more_jobs_than_work;
          tc "rejects bad args" `Quick test_pool_rejects_bad_args;
          tc "propagates worker exception" `Quick test_pool_propagates_exception;
          tc "rejects bad chunk" `Quick test_pool_rejects_bad_chunk;
          tc "jobs=1 sequential fallback" `Quick test_pool_jobs1_sequential_fallback;
          QCheck_alcotest.to_alcotest prop_pool_order_and_exactly_once;
          QCheck_alcotest.to_alcotest prop_pool_chunk_invariant;
          QCheck_alcotest.to_alcotest prop_pool_fold_init_invariant;
          tc "init exception re-raised after join" `Quick test_pool_init_exception_after_join;
          QCheck_alcotest.to_alcotest prop_pool_fold_in_order;
          QCheck_alcotest.to_alcotest prop_pool_fold_stops_at_missing;
        ] );
      ( "parallel-sweep",
        [
          tc "average jobs=4 == jobs=1" `Quick test_parallel_equals_sequential;
          tc "breakdown jobs=4 == jobs=1" `Quick test_breakdown_parallel_equals_sequential;
        ] );
      ( "determinism",
        [
          tc "same seed, same outcome" `Quick test_run_deterministic;
          tc "same seed across domains" `Quick test_run_deterministic_under_domains;
        ] );
    ]
