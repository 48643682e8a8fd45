(* Tests for the execution-tracing subsystem: determinism of the
   exporters, the skip-only-for-Single/Timely property, reconciliation
   of a run's attribution profile ([Expkit.Run.check_trace]) against
   the simulator's own accounting, and the exporters' output shape. *)

open Platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let record_run ?(variant = Apps.Common.Easeio) ?(seed = 1) (spec : Apps.Common.spec) =
  let recorder = Trace.Recorder.create () in
  let one =
    spec.Apps.Common.run
      ~sink:(Trace.Recorder.sink recorder)
      variant ~failure:Failure.paper_timer ~seed
  in
  (one, Trace.Recorder.events recorder)

let profile_of (one, events) =
  match Expkit.Run.check_trace one events with Ok p -> p | Error msg -> Alcotest.fail msg

(* {1 Determinism} *)

let test_same_seed_same_bytes () =
  let export spec =
    let ((_, events) as run) = record_run spec in
    ( Trace.Json.to_string (Trace.Export.chrome events),
      Trace.Export.text events,
      Trace.Json.to_string (Obs.Attr.to_json (profile_of run)) )
  in
  let c1, t1, p1 = export Apps.Uni.temp in
  let c2, t2, p2 = export Apps.Uni.temp in
  checks "chrome export byte-identical" c1 c2;
  checks "text export byte-identical" t1 t2;
  checks "profile export byte-identical" p1 p2

let test_different_seeds_differ () =
  let _, e1 = record_run ~seed:1 Apps.Uni.temp in
  let _, e2 = record_run ~seed:2 Apps.Uni.temp in
  (* power failures land elsewhere, so the timelines must differ *)
  checkb "different seeds give different traces" true
    (Trace.Export.text e1 <> Trace.Export.text e2)

(* {1 Nil sink: tracing is pure observation} *)

let test_nil_sink_identical_results () =
  List.iter
    (fun variant ->
      let traced, events = record_run ~variant Apps.Uni.dma in
      let plain = Apps.Uni.dma.Apps.Common.run variant ~failure:Failure.paper_timer ~seed:1 in
      checkb "events were recorded" true (List.length events > 0);
      checkb
        (Printf.sprintf "run summary identical with and without sink (%s)"
           (Apps.Common.variant_name variant))
        true (traced = plain))
    Apps.Common.all_variants

(* {1 Skip decisions only under Single/Timely semantics} *)

let skip_always_violations events =
  List.fold_left
    (fun acc (e : Trace.Event.t) ->
      match e.payload with
      | Trace.Event.Io { sem = Trace.Event.Always; decision = Trace.Event.Skip; site; _ } ->
          site :: acc
      | _ -> acc)
    [] events

let prop_skip_never_always =
  QCheck.Test.make ~name:"skip decisions never occur at Always sites" ~count:40
    QCheck.(pair (int_bound 500) (int_bound 3))
    (fun (seed, which) ->
      let spec =
        match which with
        | 0 -> Apps.Uni.dma
        | 1 -> Apps.Uni.temp
        | 2 -> Apps.Uni.lea
        | _ -> Apps.Fir.spec
      in
      let _, events = record_run ~seed:(seed + 1) spec in
      skip_always_violations events = [])

let test_weather_skip_never_always () =
  List.iter
    (fun variant ->
      let _, events = record_run ~variant Apps.Weather.spec in
      checki
        (Printf.sprintf "no Always-site skips (%s)" (Apps.Common.variant_name variant))
        0
        (List.length (skip_always_violations events)))
    Apps.Common.all_variants

(* {1 Reconciliation with Metrics} *)

let test_profile_reconciles () =
  List.iter
    (fun (spec : Apps.Common.spec) ->
      List.iter
        (fun variant ->
          List.iter
            (fun seed ->
              let one, events = record_run ~variant ~seed spec in
              match Expkit.Run.check_trace one events with
              | Ok _ -> ()
              | Error msg ->
                  Alcotest.failf "%s/%s seed %d: %s" spec.Apps.Common.app_name
                    (Apps.Common.variant_name variant) seed msg)
            [ 1; 7 ])
        Apps.Common.all_variants)
    [ Apps.Uni.dma; Apps.Uni.temp; Apps.Weather.spec ]

(* The check must refuse a run summary that is off by one in any
   bucket it reconciles. *)
let test_check_refuses_off_by_one () =
  let one, events = record_run Apps.Weather.spec in
  let bump_io = function (k, n) :: rest -> (k, n + 1) :: rest | [] -> Alcotest.fail "no io" in
  List.iter
    (fun (what, (off : Expkit.Run.one)) ->
      checkb (what ^ " off by one is refused") true
        (Result.is_error (Expkit.Run.check_trace off events)))
    [
      ("app us", { one with app_us = one.app_us + 1 });
      ("overhead us", { one with ovh_us = one.ovh_us + 1 });
      ("wasted us", { one with wasted_us = one.wasted_us + 1 });
      ("commits", { one with commits = one.commits + 1 });
      ("attempts", { one with attempts = one.attempts + 1 });
      ("one io kind", { one with io = bump_io one.io });
    ]

let test_power_failures_counted () =
  let ((one, _) as run) = record_run Apps.Weather.spec in
  let profile = profile_of run in
  checki "trace power failures == engine count" one.Expkit.Run.pf profile.Obs.Attr.power_failures;
  checki "boots = failures + 1" (one.Expkit.Run.pf + 1) profile.Obs.Attr.boots

(* {1 Chrome export shape} *)

let test_chrome_shape () =
  let one, events = record_run Apps.Weather.spec in
  match Trace.Export.chrome events with
  | Trace.Json.Obj fields ->
      checkb "has displayTimeUnit" true (List.mem_assoc "displayTimeUnit" fields);
      let evs =
        match List.assoc "traceEvents" fields with
        | Trace.Json.List l -> l
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      let phases =
        List.filter_map
          (function
            | Trace.Json.Obj f -> (
                match List.assoc_opt "ph" f with Some (Trace.Json.String p) -> Some p | _ -> None)
            | _ -> None)
          evs
      in
      let count p = List.length (List.filter (String.equal p) phases) in
      (* every committed or aborted attempt becomes one duration event on
         the task track (the power track also draws "X" off-intervals) *)
      let task_durations =
        List.filter
          (function
            | Trace.Json.Obj f ->
                List.assoc_opt "ph" f = Some (Trace.Json.String "X")
                && List.assoc_opt "cat" f = Some (Trace.Json.String "task")
            | _ -> false)
          evs
      in
      checki "duration events == attempts" one.Expkit.Run.attempts (List.length task_durations);
      checki "instant events include every power failure" one.Expkit.Run.pf
        (List.length
           (List.filter
              (function
                | Trace.Json.Obj f ->
                    List.assoc_opt "ph" f = Some (Trace.Json.String "i")
                    && List.assoc_opt "name" f = Some (Trace.Json.String "power_failure")
                | _ -> false)
              evs));
      checkb "has counter samples" true (count "C" > 0);
      checkb "has thread metadata" true (count "M" >= 4)
  | _ -> Alcotest.fail "chrome export is not an object"

let test_text_one_line_per_event () =
  let _, events = record_run Apps.Uni.temp in
  let text = Trace.Export.text events in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  checki "one line per event" (List.length events) (List.length lines)

(* {1 Atomic JSON writes} *)

let test_to_file_atomic () =
  let path = Filename.temp_file "trace_test" ".json" in
  let v = Trace.Json.Obj [ ("a", Trace.Json.Int 1); ("b", Trace.Json.String "x") ] in
  Trace.Json.to_file path v;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  checks "file holds the serialized document" (Trace.Json.to_string v) contents;
  checkb "no .tmp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let () =
  Alcotest.run "trace"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
        ] );
      ( "pure-observation",
        [ Alcotest.test_case "nil sink, identical results" `Quick test_nil_sink_identical_results ]
      );
      ( "semantics",
        [
          QCheck_alcotest.to_alcotest prop_skip_never_always;
          Alcotest.test_case "weather: no Always skips" `Quick test_weather_skip_never_always;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "profile == metrics" `Quick test_profile_reconciles;
          Alcotest.test_case "off-by-one summaries refused" `Quick test_check_refuses_off_by_one;
          Alcotest.test_case "power failures counted" `Quick test_power_failures_counted;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_chrome_shape;
          Alcotest.test_case "text one line per event" `Quick test_text_one_line_per_event;
          Alcotest.test_case "atomic to_file" `Quick test_to_file_atomic;
        ] );
    ]
