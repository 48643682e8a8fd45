(* Tests for the campaign service: differential byte-identity against
   the one-shot library paths (cold cache, warm cache, any --jobs,
   any arrival order), the single-flight cache's exactly-once
   guarantee under concurrent identical requests, and a qcheck-driven
   concurrency stress with mid-flight cancellations.

   All servers here are in-process on a fresh loopback port ([Tcp 0]);
   the spawned-binary lifecycle (SIGTERM, wire framing against a real
   process) lives in test/smoke and test/cli. *)

module Json = Trace.Json

(* A deadlock anywhere below would otherwise hang CI forever: the
   watchdog turns a hang into a loud nonzero exit. It sleeps in a
   daemon-style thread, so a normal exit is unaffected. *)
let () =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 240.;
         prerr_endline "test_serve: watchdog expired — deadlock";
         exit 2)
       ())

let with_server ?(jobs = 2) ?(cache_cap = 256) f =
  let t =
    Serve.Server.start
      {
        (Serve.Server.default_config (Serve.Server.Tcp 0)) with
        Serve.Server.jobs;
        cache_cap;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop t) (fun () -> f t (Serve.Server.Tcp (Serve.Server.port t)))

let with_client addr f =
  let c = Serve.Client.connect_retry addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let rpc_ok c ~id payload =
  match Serve.Client.rpc c ~id payload with
  | Ok o -> o
  | Error (`Error (code, msg)) -> Alcotest.failf "request #%d failed: %s: %s" id code msg
  | Error `Cancelled -> Alcotest.failf "request #%d unexpectedly cancelled" id
  | Error (`Transport msg) -> Alcotest.failf "request #%d transport error: %s" id msg

(* {1 Differential: server response == one-shot library bytes} *)

let sweep8 = Faultkit.Campaign.Boundaries { stride = 8 }

let oneshot_faults ?runtime ~seed spec =
  let variants =
    match runtime with None -> Apps.Common.all_variants | Some v -> [ v ]
  in
  Json.to_string
    (Faultkit.Campaign.to_json
       (Faultkit.Campaign.run ~jobs:1 ~resume:true ~seed ~sweep:sweep8 ~variants spec))

let test_faults_differential () =
  (* catalog apps x single/all runtimes, cold then warm, each compared
     byte for byte against [Campaign.run] *)
  with_server ~jobs:2 (fun t addr ->
      with_client addr (fun c ->
          List.iteri
            (fun i (spec, runtime) ->
              let app = spec.Apps.Common.app_name in
              let expected = oneshot_faults ?runtime ~seed:1 spec in
              let payload ~id =
                Serve.Protocol.faults_request ~id ?runtime ~sweep:sweep8 ~seed:1 ~app ()
              in
              let cold = rpc_ok c ~id:((i * 2) + 1) (payload ~id:((i * 2) + 1)) in
              Alcotest.(check string) (app ^ " cold == one-shot") expected cold.Serve.Client.doc;
              Alcotest.(check bool) (app ^ " cold not cached") false cold.Serve.Client.result_cached;
              Alcotest.(check bool)
                (app ^ " progress heartbeats streamed")
                true
                (cold.Serve.Client.heartbeats >= 1);
              let warm = rpc_ok c ~id:((i * 2) + 2) (payload ~id:((i * 2) + 2)) in
              Alcotest.(check string) (app ^ " warm == one-shot") expected warm.Serve.Client.doc;
              Alcotest.(check bool) (app ^ " warm fully cached") true warm.Serve.Client.result_cached)
            [ (Apps.Uni.temp, Some Apps.Common.Easeio); (Apps.Uni.lea, None) ];
          (* all-variants request streamed one cell frame per variant *)
          ()) ;
      let stats = Serve.Server.cache_stats t in
      Alcotest.(check int) "no poisoned computes" 0 stats.Serve.Cache.failures)

let test_faults_cell_frames () =
  with_server ~jobs:2 (fun _ addr ->
      with_client addr (fun c ->
          let payload =
            Serve.Protocol.faults_request ~id:1 ~sweep:sweep8 ~seed:1 ~app:"temp" ()
          in
          let o = rpc_ok c ~id:1 payload in
          Alcotest.(check int) "one cell frame per variant" 4 o.Serve.Client.cells;
          Alcotest.(check int) "cold: no cached cells" 0 o.Serve.Client.cached_cells))

let test_jobs_invariance () =
  (* the same campaign through a 1-worker and a 4-worker fleet *)
  let spec = Apps.Uni.temp in
  let expected = oneshot_faults ~seed:3 spec in
  let docs =
    List.map
      (fun jobs ->
        with_server ~jobs (fun _ addr ->
            with_client addr (fun c ->
                (rpc_ok c ~id:1
                   (Serve.Protocol.faults_request ~id:1 ~sweep:sweep8 ~seed:3
                      ~app:spec.Apps.Common.app_name ()))
                  .Serve.Client.doc)))
      [ 1; 4 ]
  in
  List.iteri
    (fun i doc ->
      Alcotest.(check string) (Printf.sprintf "jobs variant %d == one-shot" i) expected doc)
    docs

let trivial_src = "program t;\nnv int x;\ntask a { x = x + 1; stop; }\n"

let test_run_differential () =
  let expected =
    Json.to_string
      (Serve.Oneshot.run_doc ~policy:Lang.Interp.Easeio ~failure:Platform.Failure.No_failures
         ~seed:7 trivial_src)
  in
  with_server ~jobs:1 (fun _ addr ->
      with_client addr (fun c ->
          let payload = Serve.Protocol.run_request ~id:1 ~seed:7 ~src:trivial_src () in
          let cold = rpc_ok c ~id:1 payload in
          Alcotest.(check string) "run cold == one-shot doc" expected cold.Serve.Client.doc;
          let warm = rpc_ok c ~id:2 (Serve.Protocol.run_request ~id:2 ~seed:7 ~src:trivial_src ()) in
          Alcotest.(check string) "run warm == one-shot doc" expected warm.Serve.Client.doc;
          Alcotest.(check bool) "warm cached" true warm.Serve.Client.result_cached))

(* [easeio run --json] on either executor is [run_doc]: on the shipped
   programs, the tree walker's document is the VM's without the [vm/*]
   dispatch counters of its [obs] block, and the VM's has some. *)
let test_run_doc_executors () =
  let map_field name f = function
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) fields)
    | j -> j
  in
  let drop_vm = function
    | Json.Obj cs ->
        Json.Obj (List.filter (fun (k, _) -> not (String.starts_with ~prefix:"vm/" k)) cs)
    | j -> j
  in
  let without_vm = map_field "obs" (map_field "counters" drop_vm) in
  List.iter
    (fun name ->
      let ic = open_in_bin (Filename.concat "../examples/programs" name) in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let doc interp =
        Serve.Oneshot.run_doc ~interp ~policy:Lang.Interp.Easeio
          ~failure:Platform.Failure.paper_timer ~seed:1 src
      in
      let tree = doc Apps.Common.Tree_walk and vm = doc Apps.Common.Bytecode in
      Alcotest.(check bool) (name ^ ": VM document counts dispatch") true (without_vm vm <> vm);
      Alcotest.(check string)
        (name ^ ": tree document == VM document less vm/*")
        (Json.to_string (without_vm vm)) (Json.to_string tree))
    [ "greenhouse.eio"; "motion_log.eio" ]

let test_fuzz_differential () =
  let options = { Conformance.Fuzz.default_options with Conformance.Fuzz.count = 4; budget = 6 } in
  (* the server forces jobs:=1 on parse; report bytes are
     jobs-invariant anyway (options JSON omits jobs) *)
  let expected =
    Json.to_string
      (Conformance.Fuzz.to_json
         (Conformance.Fuzz.run { options with Conformance.Fuzz.jobs = 1 }))
  in
  with_server ~jobs:2 (fun _ addr ->
      with_client addr (fun c ->
          let o = rpc_ok c ~id:1 (Serve.Protocol.fuzz_request ~id:1 ~options ()) in
          Alcotest.(check string) "fuzz == one-shot report" expected o.Serve.Client.doc))

let test_explore_differential () =
  let spec = Apps.Uni.temp in
  let expected =
    Json.to_string
      (Explore.to_json
         (Explore.explore ~depth:1 ~prune:true ~ablate_regions:false ~ablate_semantics:false spec
            Apps.Common.Easeio ~seed:1))
  in
  with_server ~jobs:2 (fun _ addr ->
      with_client addr (fun c ->
          let o =
            rpc_ok c ~id:1
              (Serve.Protocol.explore_request ~id:1 ~runtime:Apps.Common.Easeio
                 ~app:spec.Apps.Common.app_name ())
          in
          Alcotest.(check string) "explore == one-shot report" expected o.Serve.Client.doc))

let test_arrival_order_insensitive () =
  (* two distinct campaigns pipelined on one connection: whichever
     finishes first, each id's document equals its own one-shot *)
  let e1 = oneshot_faults ~runtime:Apps.Common.Easeio ~seed:1 Apps.Uni.temp in
  let e2 = oneshot_faults ~runtime:Apps.Common.Alpaca ~seed:1 Apps.Uni.temp in
  with_server ~jobs:4 (fun _ addr ->
      with_client addr (fun c ->
          Serve.Client.send c
            (Serve.Protocol.faults_request ~id:1 ~runtime:Apps.Common.Easeio ~sweep:sweep8
               ~seed:1 ~app:"temp" ());
          Serve.Client.send c
            (Serve.Protocol.faults_request ~id:2 ~runtime:Apps.Common.Alpaca ~sweep:sweep8
               ~seed:1 ~app:"temp" ());
          let docs = Hashtbl.create 2 in
          let rec drain () =
            if Hashtbl.length docs < 2 then
              match Serve.Client.next c with
              | Ok (Serve.Client.Result { id; doc; _ }) ->
                  Hashtbl.replace docs id doc;
                  drain ()
              | Ok _ -> drain ()
              | Error msg -> Alcotest.failf "transport error: %s" msg
          in
          drain ();
          Alcotest.(check string) "id 1 == its one-shot" e1 (Hashtbl.find docs 1);
          Alcotest.(check string) "id 2 == its one-shot" e2 (Hashtbl.find docs 2)))

(* {1 Exactly-once: concurrent identical requests, one compute} *)

let test_single_flight_exactly_once () =
  with_server ~jobs:4 (fun t addr ->
      let expected = oneshot_faults ~runtime:Apps.Common.Easeio ~seed:5 Apps.Uni.temp in
      let docs = Array.make 8 "" in
      let clients =
        Array.init 8 (fun i ->
            Thread.create
              (fun () ->
                with_client addr (fun c ->
                    let o =
                      rpc_ok c ~id:1
                        (Serve.Protocol.faults_request ~id:1 ~runtime:Apps.Common.Easeio
                           ~sweep:sweep8 ~seed:5 ~app:"temp" ())
                    in
                    docs.(i) <- o.Serve.Client.doc))
              ())
      in
      Array.iter Thread.join clients;
      Array.iteri
        (fun i doc ->
          Alcotest.(check string) (Printf.sprintf "client %d byte-identical" i) expected doc)
        docs;
      let stats = Serve.Server.cache_stats t in
      Alcotest.(check int) "cell computed exactly once" 1 stats.Serve.Cache.computes;
      Alcotest.(check int) "nothing abandoned" 0 stats.Serve.Cache.abandoned)

(* {1 Cancellation} *)

let test_cancel_in_flight () =
  with_server ~jobs:1 (fun t addr ->
      with_client addr (fun c ->
          (* all four variants of an exhaustive temp sweep on one
             worker: long enough that the cancel lands mid-flight *)
          Serve.Client.send c
            (Serve.Protocol.faults_request ~id:1
               ~sweep:(Faultkit.Campaign.Boundaries { stride = 1 })
               ~seed:1 ~app:"temp" ());
          Serve.Client.cancel c ~target:1;
          let rec await () =
            match Serve.Client.next c with
            | Ok (Serve.Client.Cancelled { id = 1 }) -> `Cancelled
            | Ok (Serve.Client.Result { id = 1; _ }) -> `Completed
            | Ok _ -> await ()
            | Error msg -> Alcotest.failf "transport error: %s" msg
          in
          (* completing is legal (the cancel can lose the race); the
             server surviving and answering afterwards is the test *)
          (match await () with `Cancelled | `Completed -> ());
          match Serve.Client.ping c with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "server unresponsive after cancel: %s" msg);
      Alcotest.(check int) "no poisoned cells" 0 (Serve.Server.cache_stats t).Serve.Cache.failures)

(* {1 qcheck stress: random interleavings + mid-flight cancellations}

   N clients each issue a random schedule of requests drawn from a
   small spec pool, cancelling a random subset mid-flight. Invariants:
   every request reaches a terminal frame (no deadlock — the watchdog
   guards the whole binary), non-cancelled responses are byte-correct,
   the cache never exceeds one live compute per admission
   (computes <= distinct keys + abandoned claims), and the server
   stops cleanly with no orphaned worker domains (Server.stop joins
   them; a hang would trip the watchdog). *)

let stress_specs =
  [|
    (fun ~id -> Serve.Protocol.run_request ~id ~seed:1 ~src:trivial_src ());
    (fun ~id -> Serve.Protocol.run_request ~id ~seed:2 ~src:trivial_src ());
    (fun ~id ->
      Serve.Protocol.faults_request ~id ~runtime:Apps.Common.Easeio
        ~sweep:(Faultkit.Campaign.Boundaries { stride = 64 })
        ~seed:1 ~app:"temp" ());
    (fun ~id ->
      Serve.Protocol.faults_request ~id ~runtime:Apps.Common.Alpaca
        ~sweep:(Faultkit.Campaign.Boundaries { stride = 64 })
        ~seed:1 ~app:"temp" ());
  |]

let distinct_stress_keys = Array.length stress_specs

let prop_stress =
  QCheck.Test.make ~count:8 ~name:"serve survives random interleavings and cancellations"
    QCheck.(
      pair (int_range 1 3)
        (small_list (pair (int_bound (Array.length stress_specs - 1)) bool)))
    (fun (nclients, schedule) ->
      let schedule = if schedule = [] then [ (0, false) ] else schedule in
      let ok = Atomic.make true in
      let fail msg =
        Printf.eprintf "stress: %s\n%!" msg;
        Atomic.set ok false
      in
      with_server ~jobs:2 (fun t addr ->
          let client () =
            with_client addr (fun c ->
                List.iteri
                  (fun i (spec_idx, do_cancel) ->
                    let id = i + 1 in
                    Serve.Client.send c (stress_specs.(spec_idx) ~id);
                    if do_cancel then Serve.Client.cancel c ~target:id;
                    let rec await () =
                      match Serve.Client.next c with
                      | Ok (Serve.Client.Result { id = rid; _ }) when rid = id -> ()
                      | Ok (Serve.Client.Cancelled { id = rid }) when rid = id ->
                          if not do_cancel then fail "cancelled without a cancel"
                      | Ok (Serve.Client.Error_frame { id = rid; code; msg }) when rid = id ->
                          (* only the lost-race cancel error is legal *)
                          if not (do_cancel && code = "bad-request") then
                            fail (Printf.sprintf "error %s: %s" code msg)
                      | Ok _ -> await ()
                      | Error msg -> fail ("transport: " ^ msg)
                    in
                    await ())
                  schedule)
          in
          let threads = Array.init nclients (fun _ -> Thread.create client ()) in
          Array.iter Thread.join threads;
          let stats = Serve.Server.cache_stats t in
          if stats.Serve.Cache.computes > distinct_stress_keys + stats.Serve.Cache.abandoned then
            fail
              (Printf.sprintf "computes %d > %d keys + %d abandoned" stats.Serve.Cache.computes
                 distinct_stress_keys stats.Serve.Cache.abandoned);
          if stats.Serve.Cache.failures > 0 then fail "poisoned compute");
      Atomic.get ok)

(* {1 Cache eviction under a tiny capacity}

   A 1-entry LRU forced to evict on every alternation must still
   return byte-identical documents — eviction can only cost
   recomputation, never correctness. *)

let test_eviction_correctness () =
  with_server ~jobs:1 ~cache_cap:1 (fun t addr ->
      with_client addr (fun c ->
          let expect_a =
            Json.to_string
              (Serve.Oneshot.run_doc ~policy:Lang.Interp.Easeio
                 ~failure:Platform.Failure.No_failures ~seed:1 trivial_src)
          in
          let expect_b =
            Json.to_string
              (Serve.Oneshot.run_doc ~policy:Lang.Interp.Easeio
                 ~failure:Platform.Failure.No_failures ~seed:2 trivial_src)
          in
          for round = 0 to 2 do
            let ida = (round * 2) + 1 and idb = (round * 2) + 2 in
            let a = rpc_ok c ~id:ida (Serve.Protocol.run_request ~id:ida ~seed:1 ~src:trivial_src ()) in
            let b = rpc_ok c ~id:idb (Serve.Protocol.run_request ~id:idb ~seed:2 ~src:trivial_src ()) in
            Alcotest.(check string) "A byte-identical across evictions" expect_a a.Serve.Client.doc;
            Alcotest.(check string) "B byte-identical across evictions" expect_b b.Serve.Client.doc
          done;
          let stats = Serve.Server.cache_stats t in
          Alcotest.(check bool) "evictions happened" true (stats.Serve.Cache.evictions > 0);
          Alcotest.(check int) "capacity respected" 1 stats.Serve.Cache.entries))

(* {1 Latency and lifecycle}

   Each test drives one persistent TCP connection, as the benchmark's
   clients do. Without TCP_NODELAY on both ends, a multi-frame response
   and a request sent behind another each wait about 40 ms for a
   delayed ACK. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let test_cached_run_latency () =
  with_server ~jobs:1 (fun _ addr ->
      with_client addr (fun c ->
          let run id = rpc_ok c ~id (Serve.Protocol.run_request ~id ~seed:7 ~src:trivial_src ()) in
          ignore (run 1);
          let rtts =
            List.init 20 (fun i ->
                let o, ms = timed (fun () -> run (i + 2)) in
                Alcotest.(check bool) "repeat served from cache" true o.Serve.Client.result_cached;
                ms)
          in
          let p50 = median rtts in
          if p50 >= 20. then Alcotest.failf "cached run median round trip %.2f ms >= 20 ms" p50))

let test_ping_behind_cold_cell () =
  with_server ~jobs:2 (fun _ addr ->
      with_client addr (fun c ->
          let pong_ms seed =
            Serve.Client.send c
              (Serve.Protocol.faults_request ~id:seed ~runtime:Apps.Common.Easeio
                 ~sweep:(Faultkit.Campaign.Boundaries { stride = 32 })
                 ~seed ~app:"Weather App." ());
            let (), ms =
              timed (fun () ->
                  match Serve.Client.ping c with
                  | Ok () -> ()
                  | Error msg -> Alcotest.failf "ping behind a cold cell: %s" msg)
            in
            let rec drain () =
              match Serve.Client.next c with
              | Ok (Serve.Client.Result { id; _ }) when id = seed -> ()
              | Ok _ -> drain ()
              | Error msg -> Alcotest.failf "transport error: %s" msg
            in
            drain ();
            ms
          in
          let p50 = median (List.map pong_ms [ 1; 2; 3 ]) in
          if p50 >= 20. then Alcotest.failf "pong behind a cold cell took %.2f ms >= 20 ms" p50))

let test_parse_error_never_admitted () =
  with_server ~jobs:1 (fun t addr ->
      with_client addr (fun c ->
          ignore (rpc_ok c ~id:1 (Serve.Protocol.run_request ~id:1 ~seed:7 ~src:trivial_src ()));
          let misses () = (Serve.Server.cache_stats t).Serve.Cache.misses in
          let before = misses () in
          let bad = "program t;\nnv int x;\ntask a { x = ; stop; }\n" in
          List.iter
            (fun id ->
              match Serve.Client.rpc c ~id (Serve.Protocol.run_request ~id ~seed:7 ~src:bad ()) with
              | Error (`Error (code, msg)) ->
                  Alcotest.(check string) "code" "bad-request" code;
                  if not (String.starts_with ~prefix:"run: parse error" msg) then
                    Alcotest.failf "unexpected message %S" msg
              | _ -> Alcotest.failf "request #%d: expected a bad-request" id)
            [ 2; 3 ];
          Alcotest.(check int) "cache misses unchanged" before (misses ())))

let test_threads_reclaimed () =
  with_server ~jobs:2 (fun t addr ->
      (* accept + ticker, plus one reader per open connection *)
      let settles_to n =
        let deadline = Unix.gettimeofday () +. 5. in
        while Serve.Server.live_threads t <> n && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        Alcotest.(check int) "live threads" n (Serve.Server.live_threads t)
      in
      let clients = Array.init 4 (fun _ -> Serve.Client.connect_retry addr) in
      for i = 0 to 199 do
        let id = i + 1 in
        ignore
          (rpc_ok clients.(i mod 4) ~id
             (Serve.Protocol.run_request ~id ~seed:(i mod 5) ~src:trivial_src ()))
      done;
      settles_to (2 + Array.length clients);
      Array.iter Serve.Client.close clients;
      settles_to 2)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "serve"
    [
      ( "differential",
        [
          tc "faults: cold/warm == one-shot" `Quick test_faults_differential;
          tc "faults: cell frame per variant" `Quick test_faults_cell_frames;
          tc "faults: jobs=1 == jobs=4 == one-shot" `Quick test_jobs_invariance;
          tc "run: cold/warm == one-shot" `Quick test_run_differential;
          tc "run: tree doc == VM doc less vm/*" `Quick test_run_doc_executors;
          tc "fuzz: == one-shot report" `Quick test_fuzz_differential;
          tc "explore: == one-shot report" `Quick test_explore_differential;
          tc "pipelined ids, any arrival order" `Quick test_arrival_order_insensitive;
        ] );
      ( "cache",
        [
          tc "single-flight: 8 clients, 1 compute" `Quick test_single_flight_exactly_once;
          tc "eviction never changes bytes" `Quick test_eviction_correctness;
        ] );
      ( "stress",
        [
          tc "cancel mid-flight, server survives" `Quick test_cancel_in_flight;
          QCheck_alcotest.to_alcotest prop_stress;
        ] );
      ( "latency",
        [
          tc "cached run: median round trip < 20 ms" `Quick test_cached_run_latency;
          tc "ping behind a cold cell: pong < 20 ms" `Quick test_ping_behind_cold_cell;
          tc "parse error: bad-request, never admitted" `Quick test_parse_error_never_admitted;
        ] );
      ("lifecycle", [ tc "finished threads are reclaimed" `Quick test_threads_reclaimed ]);
    ]
