(* Tests for the fault-injection kit: deterministic failure schedules,
   the forward-progress watchdog, correctness oracles, and campaigns. *)

open Platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* {1 Failure-spec round-trip} *)

let test_failure_spec_round_trip () =
  List.iter
    (fun s ->
      match Failure.of_string s with
      | Error e -> Alcotest.failf "%S did not parse: %s" s e
      | Ok spec -> checks s s (Failure.to_string spec))
    [
      "none";
      "energy";
      "timer:5000,20000,2000,15000";
      "timer:1,1,0,0";
      "at:100";
      "at:100,2000,300000";
      "nth:1";
      "nth:4096";
    ]

let test_failure_spec_paper_alias () =
  match Failure.of_string "paper" with
  | Error e -> Alcotest.failf "paper did not parse: %s" e
  | Ok spec -> checkb "paper = paper_timer" true (spec = Failure.paper_timer)

let test_failure_spec_rejects_garbage () =
  List.iter
    (fun s ->
      match Failure.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "";
      "bogus";
      "timer:1,2,3";
      "timer:0,5,1,2";
      "timer:9,5,1,2";
      "timer:5,9,7,2";
      "at:";
      "at:0";
      "at:-5";
      "at:1,x";
      "nth:0";
      "nth:-3";
      "nth:x";
    ]

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        return Failure.No_failures;
        return Failure.Energy_driven;
        (let* on_min_us = int_range 1 30_000 in
         let* on_span = int_range 0 30_000 in
         let* off_min_us = int_range 0 20_000 in
         let* off_span = int_range 0 20_000 in
         return
           (Failure.Timer
              {
                on_min_us;
                on_max_us = on_min_us + on_span;
                off_min_us;
                off_max_us = off_min_us + off_span;
              }));
        map
          (fun ts -> Failure.At_times (List.map (fun t -> 1 + (abs t mod 1_000_000)) ts))
          (list_size (int_range 1 5) int);
        map (fun n -> Failure.Nth_charge (1 + abs n)) int;
      ])

let prop_spec_string_round_trip =
  QCheck.Test.make ~count:200 ~name:"failure spec survives to_string/of_string"
    (QCheck.make ~print:Failure.to_string spec_gen) (fun spec ->
      match Failure.of_string (Failure.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error _ -> false)

(* {1 Deterministic schedules} *)

let test_at_times_fires_at_instants () =
  let m = Machine.create ~failure:(Failure.At_times [ 500; 8_000 ]) () in
  Machine.boot m;
  let deaths = ref [] in
  let rec go () =
    match
      while true do
        Machine.cpu m 100
      done
    with
    | () -> ()
    | exception Machine.Power_failure ->
        deaths := Machine.now m :: !deaths;
        if List.length !deaths < 2 then begin
          Machine.reboot m;
          go ()
        end
  in
  go ();
  match List.rev !deaths with
  | [ d1; d2 ] ->
      checki "first instant" 500 d1;
      checki "second instant" 8_000 d2
  | ds -> Alcotest.failf "expected 2 deaths, got %d" (List.length ds)

let test_nth_charge_fires_exactly_once () =
  let m = Machine.create ~failure:(Failure.Nth_charge 3) () in
  Machine.cpu m 10;
  Machine.cpu m 10;
  (match Machine.cpu m 10 with
  | () -> Alcotest.fail "third charge should have died"
  | exception Machine.Power_failure -> ());
  Machine.reboot m;
  (* the boundary is a one-shot latch: charges keep counting past 3,
     but the schedule never refires *)
  for _ = 1 to 500 do
    Machine.cpu m 10
  done;
  checki "one failure total" 1 (Machine.failures m);
  checkb "counted past the boundary" true (Machine.charges m > 3)

(* {1 Power failure mid-DMA} *)

let test_nth_charge_cuts_dma_at_chunk () =
  (* a 64-word copy charges its setup, then one charge per 16-word
     chunk: failing on the 4th charge dies inside the third chunk, so
     exactly two chunks land *)
  let m = Machine.create ~failure:(Failure.Nth_charge 4) () in
  let src = Machine.alloc m Memory.Fram ~name:"src" ~words:64 in
  let dst = Machine.alloc m Memory.Fram ~name:"dst" ~words:64 in
  for i = 0 to 63 do
    Memory.write (Machine.mem m Memory.Fram) (src + i) (i + 1)
  done;
  (match Periph.Dma.copy m ~src:(Loc.fram src) ~dst:(Loc.fram dst) ~words:64 with
  | () -> Alcotest.fail "the 4th charge should have died"
  | exception Machine.Power_failure -> ());
  let fram = Machine.mem m Memory.Fram in
  checki "prefix copied" 1 (Memory.read fram dst);
  checki "cut after two chunks" 32 (Memory.read fram (dst + 31));
  checki "suffix untouched" 0 (Memory.read fram (dst + 32));
  (* the one-shot boundary has passed, so the re-executed transfer
     completes *)
  Machine.reboot m;
  Periph.Dma.copy m ~src:(Loc.fram src) ~dst:(Loc.fram dst) ~words:64;
  checki "retry completes" 64 (Memory.read fram (dst + 63));
  checki "both transfers counted" 2 (Machine.event m "io:DMA")

(* {1 Forward-progress watchdog} *)

let test_stall_watchdog_reports_stuck_task () =
  let m =
    Machine.create
      ~failure:(Failure.Timer { on_min_us = 50; on_max_us = 60; off_min_us = 1; off_max_us = 1 })
      ()
  in
  let t = { Kernel.Task.name = "spin"; body = (fun m -> Machine.cpu m 1_000; Kernel.Task.Stop) } in
  let app = Kernel.Task.make_app ~name:"nonterm" ~entry:"spin" [ t ] in
  let o = Kernel.Engine.run ~stall_limit:10 m app in
  checkb "gave up" true o.Kernel.Engine.gave_up;
  checkb "incomplete" false o.Kernel.Engine.completed;
  Alcotest.(check (option string)) "stuck task named" (Some "spin") o.Kernel.Engine.stuck_task;
  (* the watchdog fired long before the (default 100k) failure budget *)
  checkb "bounded attempts" true (Machine.failures m <= 10)

(* DMA's task t1 needs about 7.3 ms per attempt, and no on-window of
   this schedule is that long. Alpaca and InK re-execute all of t1
   after each failure and livelock in it, the paper's non-termination
   bug; EaseIO does not repeat the I/O that already completed, so it
   gets through. *)
let test_short_windows_livelock_baselines () =
  let spec = Apps.Catalog.find "DMA" in
  let failure = Result.get_ok (Failure.of_string "timer:5502,6731,4284,5848") in
  List.iter
    (fun seed ->
      List.iter
        (fun variant ->
          let one = spec.Apps.Common.run variant ~failure ~seed in
          let what = Printf.sprintf "%s, seed %d" (Apps.Common.variant_name variant) seed in
          match variant with
          | Apps.Common.Alpaca | Apps.Common.Ink ->
              checkb (what ^ ": gave up") true one.Expkit.Run.gave_up;
              Alcotest.(check (option string)) (what ^ ": stuck in t1") (Some "t1")
                one.Expkit.Run.stuck_task
          | Apps.Common.Easeio | Apps.Common.Easeio_op ->
              checkb (what ^ ": completed") true one.Expkit.Run.completed;
              Alcotest.(check (option bool)) (what ^ ": correct") (Some true) one.Expkit.Run.correct)
        Apps.Common.all_variants)
    [ 1; 2; 3; 4; 5 ]

(* {1 Campaigns and oracles} *)

let test_campaign_boundary_sweep_passes_on_safe_app () =
  let spec = Apps.Catalog.find "DMA" in
  let report =
    Faultkit.Campaign.run ~jobs:2
      ~sweep:(Faultkit.Campaign.Boundaries { stride = 977 })
      ~variants:Apps.Common.all_variants spec
  in
  checkb "all oracles pass" true (Faultkit.Campaign.passed report);
  checki "four cells" 4 (List.length report.Faultkit.Campaign.cells);
  List.iter
    (fun (c : Faultkit.Campaign.cell) ->
      checkb "sweep space measured" true (c.boundaries > 0);
      checki "one case per stride step" (1 + ((c.boundaries - 1) / 977)) c.cases)
    report.Faultkit.Campaign.cells

let test_campaign_catches_unsafe_runtime () =
  (* FIR under Alpaca is the paper's Table 5 unsafe pair: re-executed
     in-place I/O corrupts the committed signal. The differential
     NV-state oracle must see it. *)
  let spec = Apps.Catalog.find "FIR filter" in
  let report =
    Faultkit.Campaign.run ~jobs:2
      ~sweep:(Faultkit.Campaign.Boundaries { stride = 101 })
      ~variants:[ Apps.Common.Alpaca ] spec
  in
  checkb "violations found" false (Faultkit.Campaign.passed report);
  let cell = List.hd report.Faultkit.Campaign.cells in
  checkb "some case failed" true (cell.Faultkit.Campaign.failed <> []);
  let has_nv_mismatch =
    List.exists
      (fun (c : Faultkit.Campaign.case) ->
        List.exists
          (function Faultkit.Campaign.Nv_mismatch _ -> true | _ -> false)
          c.violations)
      (Faultkit.Campaign.failed_cases cell.Faultkit.Campaign.failed)
  in
  checkb "differential oracle fired" true has_nv_mismatch

(* One case from power on, judged as a sweep judges it. *)
let judge_from_power_on (spec : Apps.Common.spec) variant ~golden k =
  let watch, skips = Faultkit.Oracle.always_skip_watch () in
  let diff = ref [] in
  let one =
    spec.run ~sink:watch
      ~probe:(fun m ->
        diff := Faultkit.Oracle.nv_diff ~extra_volatile:spec.nv_volatile ~golden m)
      variant ~failure:(Failure.Nth_charge k) ~seed:1
  in
  ( one.Expkit.Run.pf,
    Faultkit.Campaign.verdict ~gave_up:one.Expkit.Run.gave_up
      ~stuck_task:one.Expkit.Run.stuck_task ~correct:one.Expkit.Run.correct ~diff:!diff
      ~skipped:(skips ()) )

(* Neighbouring boundaries of FIR under Alpaca fail alike, and the cell
   keeps one record per maximal run of them. The runs expand to exactly
   the failed cases a case-by-case judgement from power on finds, and
   no two neighbouring runs could have been one. *)
let test_failed_cases_fold_into_runs () =
  let spec = Apps.Catalog.find "FIR filter" in
  let stride = 7 in
  let report =
    Faultkit.Campaign.run ~jobs:2
      ~sweep:(Faultkit.Campaign.Boundaries { stride })
      ~variants:[ Apps.Common.Alpaca ] spec
  in
  let cell = List.hd report.Faultkit.Campaign.cells in
  let runs = cell.Faultkit.Campaign.failed in
  checkb "runs longer than one case" true
    (List.exists (fun (r : Faultkit.Campaign.failed_run) -> r.count > 1) runs);
  checkb "fewer runs than failed cases" true (List.length runs < cell.failed_count);
  checki "runs sum to the failed count" cell.failed_count
    (List.fold_left (fun n (r : Faultkit.Campaign.failed_run) -> n + r.count) 0 runs);
  let rec maximal = function
    | (a : Faultkit.Campaign.failed_run) :: (b :: _ as rest) ->
        let last =
          List.nth (Faultkit.Campaign.failed_cases [ a ]) (a.count - 1)
        in
        (match (last.schedule, b.first.schedule) with
        | Failure.Nth_charge i, Failure.Nth_charge j ->
            checkb "neighbouring runs differ or are apart" true
              (j <> i + stride || b.first.violations <> a.first.violations
             || b.first.pf <> a.first.pf)
        | _ -> Alcotest.fail "boundary schedules expected");
        maximal rest
    | _ -> ()
  in
  maximal runs;
  let captured = ref None in
  ignore
    (spec.run
       ~probe:(fun m -> captured := Some (Faultkit.Oracle.capture m))
       Apps.Common.Alpaca ~failure:Failure.No_failures ~seed:1);
  let golden = Option.get !captured in
  let expected = ref [] in
  let k = ref 1 in
  while !k <= golden.Faultkit.Oracle.charges do
    (match judge_from_power_on spec Apps.Common.Alpaca ~golden !k with
    | _, [] -> ()
    | pf, violations -> expected := (Failure.Nth_charge !k, pf, violations) :: !expected);
    k := !k + stride
  done;
  checkb "expanded runs = per-case judgements" true
    (List.rev !expected
    = List.map
        (fun (c : Faultkit.Campaign.case) -> (c.schedule, c.pf, c.violations))
        (Faultkit.Campaign.failed_cases runs))

let test_oracle_catches_ablated_semantics () =
  (* EaseIO with re-execution semantics deliberately ablated (tests
     only): the golden image is captured from the broken build itself,
     so any surviving mismatch is pure failure-schedule damage *)
  let captured = ref None in
  let golden_run =
    Apps.Fir.run_ablated
      ~probe:(fun m -> captured := Some (Faultkit.Oracle.capture m))
      ~ablate_regions:false ~ablate_semantics:true ~failure:Failure.No_failures ~seed:1 ()
  in
  checkb "golden run completes" true golden_run.Expkit.Run.completed;
  let golden = Option.get !captured in
  let caught = ref false in
  let k = ref 1 in
  while (not !caught) && !k <= golden.Faultkit.Oracle.charges do
    let diff = ref [] in
    let one =
      Apps.Fir.run_ablated
        ~probe:(fun m -> diff := Faultkit.Oracle.nv_diff ~golden m)
        ~ablate_regions:false ~ablate_semantics:true ~failure:(Failure.Nth_charge !k) ~seed:1 ()
    in
    if (not one.Expkit.Run.gave_up) && !diff <> [] then caught := true;
    k := !k + 53
  done;
  checkb "ablated semantics caught by NV oracle" true !caught

let test_campaign_deterministic_across_jobs () =
  let spec = Apps.Catalog.find "Temp." in
  let sweep = Faultkit.Campaign.Random { cases = 10 } in
  let r1 = Faultkit.Campaign.run ~jobs:1 ~sweep ~variants:Apps.Common.all_variants spec in
  let r4 = Faultkit.Campaign.run ~jobs:4 ~sweep ~variants:Apps.Common.all_variants spec in
  checkb "reports equal" true (r1 = r4);
  checks "JSON bit-identical"
    (Trace.Json.to_string (Faultkit.Campaign.to_json r1))
    (Trace.Json.to_string (Faultkit.Campaign.to_json r4))

(* {1 Parallel resumed sweeps}

   A resumed boundary sweep fans its cases out over the domain pool,
   each domain pacing its own checkpoints; the report must not show
   it. Every [jobs] value gives the JSON bytes of the from-power-on
   path. FIR under all four runtimes folds Alpaca's and InK's failed
   cases; Weather at stride 2000 has two cases per cell, fewer than
   [jobs = 3]. *)

let resume_invariant ~what ~stride ~variants spec =
  let sweep = Faultkit.Campaign.Boundaries { stride } in
  let run ~jobs ~resume = Faultkit.Campaign.run ~jobs ~resume ~sweep ~variants spec in
  let reference = run ~jobs:2 ~resume:false in
  let bytes r = Trace.Json.to_string (Faultkit.Campaign.to_json r) in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "%s: resumed jobs=%d == from power on" what jobs)
        (bytes reference)
        (bytes (run ~jobs ~resume:true)))
    [ 1; 2; 3 ];
  reference

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Resumed sweeps share the continuation of every post-reboot state an
   earlier case reached. Temp reads the clock in every continuation
   (Timely stamps and sensors), so none is stored; DMA and LEA share
   theirs, VM dispatch counts included; greenhouse.eio mixes Timely,
   Always and sensor sites. *)
let test_resumed_sweep_shares_continuations () =
  List.iter
    (fun (name, stride) ->
      ignore
        (resume_invariant ~what:name ~stride ~variants:Apps.Common.all_variants
           (Apps.Catalog.find name)))
    [ ("Temp.", 97); ("DMA", 89); ("LEA", 101) ];
  ignore
    (resume_invariant ~what:"greenhouse.eio" ~stride:3 ~variants:Apps.Common.all_variants
       (Progs.spec_of_source ~name:"greenhouse"
          (read_file "../examples/programs/greenhouse.eio")))

(* The receiver log is the only thing that tells [Progs.radio_log]'s
   two reboot states apart: a continuation keyed without it would pass
   the duplicate send. *)
let test_radio_log_keys_continuations () =
  let report =
    resume_invariant ~what:"radio log" ~stride:1 ~variants:[ Apps.Common.Alpaca ] Progs.radio_log
  in
  let cell = List.hd report.Faultkit.Campaign.cells in
  checkb "duplicates fail" true (cell.Faultkit.Campaign.failed_count > 0);
  checkb "resends before the log pass" true
    (cell.Faultkit.Campaign.failed_count < cell.Faultkit.Campaign.cases)

(* Walks tape and replay, and a stored continuation keeps, only
   {!Kernel.Walker.observed} events: over traced runs of every catalog app under paper failures,
   those fold to the same attribution profile and Always-watch result
   as the full stream. *)
let test_observed_events_suffice () =
  let fold events =
    let attr = Obs.Attr.create () in
    let watch, skips = Faultkit.Oracle.always_skip_watch () in
    List.iter
      (fun e ->
        Obs.Attr.sink attr e;
        watch e)
      events;
    (Obs.Attr.profile attr, skips ())
  in
  List.iter
    (fun (spec : Apps.Common.spec) ->
      List.iter
        (fun variant ->
          let events = ref [] in
          ignore
            (spec.run
               ~sink:(fun e -> events := e :: !events)
               variant ~failure:Failure.paper_timer ~seed:3);
          let all = List.rev !events in
          let kept = List.filter Kernel.Walker.observed all in
          checkb (spec.app_name ^ ": fewer events kept") true (List.length kept < List.length all);
          checkb (spec.app_name ^ ": same profile and watch") true (fold kept = fold all))
        Apps.Common.all_variants)
    Apps.Catalog.all

let test_resumed_sweep_jobs_invariant () =
  let fir =
    resume_invariant ~what:"FIR" ~stride:29 ~variants:Apps.Common.all_variants
      (Apps.Catalog.find "FIR filter")
  in
  List.iter
    (fun (c : Faultkit.Campaign.cell) ->
      match c.variant with
      | Apps.Common.Alpaca | Apps.Common.Ink -> checkb "baseline cell has failed cases" true (c.failed <> [])
      | _ -> ())
    fir.Faultkit.Campaign.cells;
  let weather = Apps.Catalog.find "Weather App." in
  ignore (resume_invariant ~what:"Weather" ~stride:61 ~variants:[ Apps.Common.Easeio ] weather);
  (* dense strides fill the walker's capture batches *)
  ignore
    (resume_invariant ~what:"FIR, dense" ~stride:1
       ~variants:[ Apps.Common.Easeio; Apps.Common.Alpaca ]
       (Apps.Catalog.find "FIR filter"));
  ignore (resume_invariant ~what:"Weather, dense" ~stride:3 ~variants:[ Apps.Common.Alpaca ] weather);
  let sparse =
    resume_invariant ~what:"Weather, sparse" ~stride:2000
      ~variants:[ Apps.Common.Alpaca; Apps.Common.Easeio_op ]
      weather
  in
  List.iter
    (fun (c : Faultkit.Campaign.cell) -> checkb "fewer cases than jobs" true (c.cases < 3))
    sparse.Faultkit.Campaign.cells

(* With more than one domain available, a [jobs = 2] resumed sweep
   really runs on two: one progress tick per case, and the ticks come
   from more than one domain. *)
let test_resumed_sweep_fans_out () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  let tickers = ref [] in
  let progress =
    Obs.Progress.create ~interval_s:0.
      (Obs.Progress.Sink (fun _ -> tickers := Domain.self () :: !tickers))
      ~label:"fan-out"
  in
  let report =
    Faultkit.Campaign.run ~jobs:2 ~progress ~resume:true
      ~sweep:(Faultkit.Campaign.Boundaries { stride = 4 })
      ~variants:[ Apps.Common.Easeio ] (Apps.Catalog.find "FIR filter")
  in
  let cases = (List.hd report.Faultkit.Campaign.cells).Faultkit.Campaign.cases in
  checki "one tick per case" cases (List.length !tickers);
  checkb "ticks from more than one domain" true
    (List.length (List.sort_uniq compare !tickers) > 1)

let test_sweep_spec_round_trip () =
  List.iter
    (fun s ->
      match Faultkit.Campaign.sweep_of_string s with
      | Error e -> Alcotest.failf "%S did not parse: %s" s e
      | Ok sw -> checks s s (Faultkit.Campaign.sweep_to_string sw))
    [ "boundaries"; "boundaries:50"; "random:200" ];
  List.iter
    (fun s ->
      match Faultkit.Campaign.sweep_of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "boundaries:0"; "random:"; "random:-1"; "exhaustive" ]

(* {1 Property: committed NV state is schedule-independent}

   The paper's core safety claim, as a qcheck property: for the
   catalog's runtime-safe app/variant pairs, the final committed NV
   image under an arbitrary Timer/At_times schedule equals the
   no-failure golden image (modulo declared-volatile regions). FIR under
   the baselines is excluded — corrupting there is Table 5's point, and
   [test_campaign_catches_unsafe_runtime] pins it. *)

let safe_apps = [ "DMA"; "Temp."; "LEA" ]

(* Per (app, variant): the golden NV image, and the golden run's
   longest committed attempt in µs. *)
let goldens : (string * Apps.Common.variant, Faultkit.Oracle.golden * int) Hashtbl.t =
  Hashtbl.create 16

let golden_for (spec : Apps.Common.spec) variant =
  match Hashtbl.find_opt goldens (spec.Apps.Common.app_name, variant) with
  | Some g -> g
  | None ->
      let captured = ref None and longest = ref 0 in
      let sink (e : Trace.Event.t) =
        match e.payload with
        | Trace.Event.Task_commit { app_us; ovh_us; _ } -> longest := max !longest (app_us + ovh_us)
        | _ -> ()
      in
      ignore
        (spec.Apps.Common.run ~sink
           ~probe:(fun m -> captured := Some (Faultkit.Oracle.capture m))
           variant ~failure:Failure.No_failures ~seed:1);
      let g = (Option.get !captured, !longest) in
      Hashtbl.add goldens (spec.Apps.Common.app_name, variant) g;
      g

(* On-times start at the golden run's longest committed attempt, so
   every attempt fits some on-window and makes forward progress. Under
   Alpaca and InK a failure re-executes the whole task, so a shorter
   window can livelock them: that is the paper's non-termination bug,
   which the watchdog tests cover, not this property. *)
let schedule_gen ~on_floor_us =
  QCheck.Gen.(
    oneof
      [
        map
          (fun ts -> Failure.At_times (List.map (fun t -> 1 + (abs t mod 300_000)) ts))
          (list_size (int_range 1 3) int);
        (let* on_min_us = int_range on_floor_us 12_000 in
         let* on_span = int_range 1_000 8_000 in
         let* off_min_us = int_range 1_000 5_000 in
         let* off_span = int_range 1_000 10_000 in
         return
           (Failure.Timer
              {
                on_min_us;
                on_max_us = on_min_us + on_span;
                off_min_us;
                off_max_us = off_min_us + off_span;
              }));
      ])

let prop_nv_state_schedule_independent =
  let app_variant app_i var_i =
    (Apps.Catalog.find (List.nth safe_apps app_i), List.nth Apps.Common.all_variants var_i)
  in
  QCheck.Test.make ~count:40
    ~name:"final committed NV state under arbitrary schedules equals no-failure golden"
    (QCheck.make
       ~print:(fun (a, v, s) ->
         Printf.sprintf "%s under %s, %s" (List.nth safe_apps a)
           (Apps.Common.variant_name (List.nth Apps.Common.all_variants v))
           (Failure.to_string s))
       QCheck.Gen.(
         let* app_i = int_range 0 (List.length safe_apps - 1) in
         let* var_i = int_range 0 (List.length Apps.Common.all_variants - 1) in
         let spec, variant = app_variant app_i var_i in
         let+ schedule = schedule_gen ~on_floor_us:(snd (golden_for spec variant)) in
         (app_i, var_i, schedule)))
    (fun (app_i, var_i, schedule) ->
      let spec, variant = app_variant app_i var_i in
      let golden, _ = golden_for spec variant in
      let diff = ref [] in
      let one =
        spec.Apps.Common.run
          ~probe:(fun m ->
            diff := Faultkit.Oracle.nv_diff ~extra_volatile:spec.Apps.Common.nv_volatile ~golden m)
          variant ~failure:schedule ~seed:1
      in
      (not one.Expkit.Run.gave_up)
      && one.Expkit.Run.correct <> Some false
      && !diff = [])

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "faultkit"
    [
      ( "failure specs",
        [
          tc "round trip" `Quick test_failure_spec_round_trip;
          tc "paper alias" `Quick test_failure_spec_paper_alias;
          tc "rejects garbage" `Quick test_failure_spec_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_spec_string_round_trip;
        ] );
      ( "schedules",
        [
          tc "at-times fires at instants" `Quick test_at_times_fires_at_instants;
          tc "nth-charge fires exactly once" `Quick test_nth_charge_fires_exactly_once;
        ] );
      ( "power failure mid-DMA",
        [ tc "nth-charge cut leaves chunk prefix" `Quick test_nth_charge_cuts_dma_at_chunk ] );
      ( "watchdog",
        [
          tc "stall reports stuck task" `Quick test_stall_watchdog_reports_stuck_task;
          tc "short windows livelock the baselines" `Quick test_short_windows_livelock_baselines;
        ] );
      ( "campaigns",
        [
          tc "boundary sweep passes on safe app" `Quick test_campaign_boundary_sweep_passes_on_safe_app;
          tc "catches unsafe runtime" `Quick test_campaign_catches_unsafe_runtime;
          tc "failed cases fold into runs" `Quick test_failed_cases_fold_into_runs;
          tc "catches ablated semantics" `Quick test_oracle_catches_ablated_semantics;
          tc "deterministic across jobs" `Quick test_campaign_deterministic_across_jobs;
          tc "sweep spec round trip" `Quick test_sweep_spec_round_trip;
          tc "resumed sweep jobs-invariant" `Quick test_resumed_sweep_jobs_invariant;
          tc "resumed sweep fans out" `Quick test_resumed_sweep_fans_out;
          tc "resumed sweep shares continuations" `Quick test_resumed_sweep_shares_continuations;
          tc "radio log keys continuations" `Quick test_radio_log_keys_continuations;
          tc "observed events suffice" `Quick test_observed_events_suffice;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_nv_state_schedule_independent ]);
    ]
