(* Tests for the observability layer: the registry's bucket scheme,
   sheet freezing, the snapshot merge algebra (exact, associative —
   the determinism contract campaigns rely on), zero-cost-when-off
   metering, campaign attribution reconciliation and jobs-invariance,
   and the tolerance-aware report diff behind the CI perf gate. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* {1 Registry} *)

let test_registry_buckets () =
  checki "one bucket per edge plus overflow"
    (Array.length Obs.Registry.edges + 1)
    Obs.Registry.buckets;
  checki "zero lands in the first bucket" 0 (Obs.Registry.bucket 0);
  checki "huge values land in the overflow bucket" (Obs.Registry.buckets - 1)
    (Obs.Registry.bucket max_int);
  (* Bucketing is monotone, so histogram rows read left-to-right. *)
  let samples = [ 0; 1; 9; 10; 99; 100; 5_000; 99_999; 1_000_000; 12_345_678 ] in
  ignore
    (List.fold_left
       (fun prev v ->
         let b = Obs.Registry.bucket v in
         checkb "bucket index is monotone" true (b >= prev);
         b)
       0 samples)

let test_registry_interning_idempotent () =
  let a = Obs.Registry.counter "test/intern_me" in
  checki "same id on re-intern" a (Obs.Registry.counter "test/intern_me");
  checks "name resolves back" "test/intern_me" (Obs.Registry.counter_name a);
  let h = Obs.Registry.hist "test/intern_me" in
  checki "hist id space is separate but stable" h (Obs.Registry.hist "test/intern_me")

(* {1 Sheet freezing} *)

let test_sheet_freeze () =
  let sheet = Obs.Sheet.create () in
  let a = Obs.Registry.counter "test/alpha" in
  let h = Obs.Registry.hist "test/lat_us" in
  Obs.Sheet.bump sheet a;
  Obs.Sheet.add sheet a 41;
  Obs.Sheet.observe sheet h 5;
  Obs.Sheet.observe sheet h 50_000;
  let snap = Obs.Snapshot.of_sheet ~events:[ ("radio_send", 3) ] sheet in
  checki "counter accumulated" 42 (Obs.Snapshot.counter snap "test/alpha");
  checki "machine events folded under event/" 3 (Obs.Snapshot.counter snap "event/radio_send");
  (match List.assoc_opt "test/lat_us" snap.Obs.Snapshot.hists with
  | None -> Alcotest.fail "histogram row missing from snapshot"
  | Some row ->
      checki "histogram row has the global width" Obs.Registry.buckets (Array.length row);
      checki "both observations counted" 2 (Array.fold_left ( + ) 0 row));
  let names = List.map fst snap.Obs.Snapshot.counters in
  checkb "counters are name-sorted" true (List.sort compare names = names);
  Obs.Sheet.reset sheet;
  checkb "reset zeroes every row" true
    (Obs.Snapshot.equal Obs.Snapshot.zero (Obs.Snapshot.of_sheet sheet))

(* {1 Snapshot algebra} *)

let snap_gen =
  QCheck.Gen.(
    let name = oneofl [ "m/a"; "m/b"; "m/c"; "m/d" ] in
    let counters = list_size (int_bound 6) (pair name (int_bound 100)) in
    let hists = list_size (int_bound 3) (pair name (array_repeat Obs.Registry.buckets (int_bound 50))) in
    map (fun (c, h) -> Obs.Snapshot.make ~counters:c ~hists:h) (pair counters hists))

let snap_arb =
  QCheck.make ~print:(fun s -> Trace.Json.to_string (Obs.Snapshot.to_json s)) snap_gen

let prop_merge_algebra =
  QCheck.Test.make ~count:200
    ~name:"Snapshot.merge is associative and commutative with zero as identity"
    QCheck.(triple snap_arb snap_arb snap_arb)
    (fun (a, b, c) ->
      let open Obs.Snapshot in
      equal (merge (merge a b) c) (merge a (merge b c))
      && equal (merge a b) (merge b a)
      && equal (merge zero a) a
      && equal (merge a zero) a)

let prop_merge_canonical_json =
  QCheck.Test.make ~count:200
    ~name:"equal merge orders print byte-identical JSON (the --jobs contract)"
    QCheck.(triple snap_arb snap_arb snap_arb)
    (fun (a, b, c) ->
      let open Obs.Snapshot in
      Trace.Json.to_string (to_json (merge (merge a b) c))
      = Trace.Json.to_string (to_json (merge a (merge b c))))

let prop_snapshot_json_round_trip =
  QCheck.Test.make ~count:200 ~name:"snapshot JSON emit/parse round-trips" snap_arb (fun s ->
      let text = Trace.Json.to_string (Obs.Snapshot.to_json s) in
      match Trace.Json.of_string text with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok doc -> (
          match Obs.Snapshot.of_json doc with
          | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e
          | Ok s' -> Obs.Snapshot.equal s s'))

(* {1 Zero-cost-when-off: metering is pure observation} *)

let test_meter_does_not_perturb_results () =
  let spec = Apps.Catalog.find "Temp." in
  let failure = Platform.Failure.Nth_charge 2 in
  let bare = spec.Apps.Common.run Apps.Common.Easeio ~failure ~seed:7 in
  let sheet = Obs.Sheet.create () in
  let metered = spec.Apps.Common.run ~meter:sheet Apps.Common.Easeio ~failure ~seed:7 in
  checkb "metered run result identical to unmetered" true (bare = metered);
  checkb "sheet recorded engine activity" true
    (Obs.Sheet.counter sheet (Obs.Registry.counter "engine/commits") > 0)

(* {1 Campaign attribution} *)

let folded_weight_sum text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.fold_left
       (fun acc line ->
         match String.rindex_opt line ' ' with
         | None -> acc
         | Some i -> acc + int_of_string (String.sub line (i + 1) (String.length line - i - 1)))
       0

let test_campaign_profile_reconciles () =
  let spec = Apps.Catalog.find "Temp." in
  let report =
    Faultkit.Campaign.run ~jobs:2
      ~sweep:(Faultkit.Campaign.Random { cases = 8 })
      ~variants:[ Apps.Common.Easeio ] spec
  in
  (match Faultkit.Campaign.reconcile report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile does not reconcile with metrics: %s" e);
  let t = Faultkit.Campaign.totals report in
  checki "flamegraph weights sum exactly to the metric totals"
    Faultkit.Campaign.(t.app_us + t.ovh_us + t.wasted_us)
    (folded_weight_sum (Faultkit.Campaign.flamegraph report));
  let p = Faultkit.Campaign.profile report in
  checki "profile counts every sweep case" 8 p.Obs.Attr.runs;
  checkb "engine commits made it into the merged snapshot" true
    (Obs.Snapshot.counter (Faultkit.Campaign.snapshot report) "engine/commits" > 0)

let test_campaign_obs_jobs_invariant () =
  let spec = Apps.Catalog.find "Temp." in
  let sweep = Faultkit.Campaign.Random { cases = 10 } in
  let run jobs = Faultkit.Campaign.run ~jobs ~sweep ~variants:[ Apps.Common.Easeio ] spec in
  let r1 = run 1 and r8 = run 8 in
  checks "merged snapshot JSON byte-identical for --jobs 1 and 8"
    (Trace.Json.to_string (Obs.Snapshot.to_json (Faultkit.Campaign.snapshot r1)))
    (Trace.Json.to_string (Obs.Snapshot.to_json (Faultkit.Campaign.snapshot r8)));
  checks "flamegraph byte-identical" (Faultkit.Campaign.flamegraph r1)
    (Faultkit.Campaign.flamegraph r8);
  checks "perfetto export byte-identical"
    (Trace.Json.to_string (Faultkit.Campaign.perfetto r1))
    (Trace.Json.to_string (Faultkit.Campaign.perfetto r8))

(* {1 Fuzz campaign metrics} *)

let test_fuzz_snapshot_jobs_invariant () =
  let options = { Conformance.Fuzz.default_options with count = 6; seed = 5; check_vm = false } in
  let r1 = Conformance.Fuzz.run { options with jobs = 1 } in
  let r4 = Conformance.Fuzz.run { options with jobs = 4 } in
  checkb "fuzz snapshot equal across jobs" true (Obs.Snapshot.equal r1.snap r4.snap);
  checki "fuzz/cases counts every case" 6 (Obs.Snapshot.counter r1.snap "fuzz/cases")

(* {1 Report diff} *)

let base_doc =
  Trace.Json.Obj
    [
      ("meta", Trace.Json.Obj [ ("git_sha", Trace.Json.String "abc"); ("jobs", Trace.Json.Int 2) ]);
      ("app_ms", Trace.Json.Float 10.0);
      ("vm_runs_per_s", Trace.Json.Float 1000.0);
      ("total_wall_s", Trace.Json.Float 5.0);
      ("resumed_jobs", Trace.Json.Int 2);
    ]

let with_field name v =
  match base_doc with
  | Trace.Json.Obj fields ->
      Trace.Json.Obj (List.map (fun (k, old) -> (k, if k = name then v else old)) fields)
  | _ -> assert false

let diff cur = Obs.Report.diff ~base:base_doc ~cur ()

let level_of path findings =
  match List.find_opt (fun f -> f.Obs.Report.path = path) findings with
  | Some f -> Some f.Obs.Report.level
  | None -> None

let test_report_informational_rows_never_regress () =
  let findings = diff (with_field "meta" (Trace.Json.Obj [ ("git_sha", Trace.Json.String "def"); ("jobs", Trace.Json.Int 8) ])) in
  checkb "meta rows are notes" true
    (List.for_all (fun f -> f.Obs.Report.level = Obs.Report.Note) findings);
  checkb "a bigger host's job count is a note" true
    (level_of "resumed_jobs" (diff (with_field "resumed_jobs" (Trace.Json.Int 64)))
    = Some Obs.Report.Note);
  let findings = diff (with_field "total_wall_s" (Trace.Json.Float 500.0)) in
  checkb "wall-clock rows are notes even when 100x worse" true
    (List.for_all (fun f -> f.Obs.Report.level = Obs.Report.Note) findings)

let test_report_simulated_metric_tolerance () =
  (* Threshold for base 10.0: 10 + 0.75*10 + 1 = 18.5. *)
  (match level_of "app_ms" (diff (with_field "app_ms" (Trace.Json.Float 15.0))) with
  | Some Obs.Report.Note -> ()
  | other -> Alcotest.failf "within-tolerance drift misclassified: %s" (match other with None -> "no finding" | Some _ -> "Regression"));
  (match level_of "app_ms" (diff (with_field "app_ms" (Trace.Json.Float 30.0))) with
  | Some Obs.Report.Regression -> ()
  | _ -> Alcotest.fail "3x simulated-metric cliff not flagged");
  match level_of "app_ms" (diff (with_field "app_ms" (Trace.Json.Float 2.0))) with
  | Some Obs.Report.Note -> ()
  | None -> ()
  | Some Obs.Report.Regression -> Alcotest.fail "improvements must never regress"

let test_report_throughput_collapse_only () =
  (match level_of "vm_runs_per_s" (diff (with_field "vm_runs_per_s" (Trace.Json.Float 400.0))) with
  | Some Obs.Report.Note -> ()
  | _ -> Alcotest.fail "2.5x throughput dip inside wall_factor should be a note");
  match level_of "vm_runs_per_s" (diff (with_field "vm_runs_per_s" (Trace.Json.Float 100.0))) with
  | Some Obs.Report.Regression -> ()
  | _ -> Alcotest.fail "10x throughput collapse not flagged"

let test_report_regressions_filter () =
  let findings = diff (with_field "app_ms" (Trace.Json.Float 30.0)) in
  let regs = Obs.Report.regressions findings in
  checki "only the regression survives the filter" 1 (List.length regs);
  checks "and it names the row" "app_ms" (List.hd regs).Obs.Report.path;
  checki "identical documents diff empty" 0 (List.length (diff base_doc))

(* {1 Progress} *)

let test_progress_mode_parse () =
  List.iter
    (fun (s, expect) ->
      match Obs.Progress.mode_of_string s with
      | Ok m -> checkb s true (m = expect)
      | Error e -> Alcotest.failf "%S did not parse: %s" s e)
    [
      ("off", Obs.Progress.Off);
      ("none", Obs.Progress.Off);
      ("stderr", Obs.Progress.Stderr);
      ("bar", Obs.Progress.Stderr);
      ("json", Obs.Progress.Jsonl);
      ("jsonl", Obs.Progress.Jsonl);
    ];
  match Obs.Progress.mode_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus mode should not parse"
  | Error _ -> ()

(* A sink blocked on a stalled consumer (serve's is a socket write)
   must stall only its own reporter. The blocked sink is released
   whatever happens, so a tick stuck behind it fails the test by
   timeout rather than hanging it. *)
let test_progress_blocked_sink_isolated () =
  let entered = Semaphore.Binary.make false and gate = Semaphore.Binary.make false in
  let blocked =
    Obs.Progress.create ~interval_s:0.
      (Obs.Progress.Sink
         (fun _ ->
           Semaphore.Binary.release entered;
           Semaphore.Binary.acquire gate))
      ~label:"blocked"
  in
  let other = Obs.Progress.create ~interval_s:0. (Obs.Progress.Sink ignore) ~label:"other" in
  let a = Thread.create (fun () -> Obs.Progress.tick blocked) () in
  Semaphore.Binary.acquire entered;
  let done_ = Atomic.make false in
  let b =
    Thread.create
      (fun () ->
        Obs.Progress.tick other;
        Atomic.set done_ true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 2. in
  while (not (Atomic.get done_)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let completed = Atomic.get done_ in
  Semaphore.Binary.release gate;
  Thread.join a;
  Thread.join b;
  checkb "tick on another reporter completes while a sink is blocked" true completed

(* Parallel sweeps tick one reporter from several domains, and a sink
   may keep unsynchronised state (the benchmark's latency ticker pushes
   into a plain buffer): that is sound only because calls for one
   reporter are serialized. Two domains tick one reporter 1000 times
   each; the sink must see every line and never be entered twice at
   once. *)
let test_progress_sink_serialized () =
  let inside = Atomic.make false and overlapped = Atomic.make false in
  let lines = ref 0 in
  let p =
    Obs.Progress.create ~interval_s:0.
      (Obs.Progress.Sink
         (fun _ ->
           if Atomic.exchange inside true then Atomic.set overlapped true;
           incr lines;
           for _ = 1 to 500 do
             Domain.cpu_relax ()
           done;
           Atomic.set inside false))
      ~label:"shared"
  in
  let ticks () =
    for _ = 1 to 1000 do
      Obs.Progress.tick p
    done
  in
  let other = Domain.spawn ticks in
  ticks ();
  Domain.join other;
  checki "one line per tick" 2000 !lines;
  checkb "sink never entered concurrently" false (Atomic.get overlapped)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "obs"
    [
      ( "registry",
        [
          tc "bucket scheme" `Quick test_registry_buckets;
          tc "interning idempotent" `Quick test_registry_interning_idempotent;
        ] );
      ("sheet", [ tc "freeze and reset" `Quick test_sheet_freeze ]);
      ( "snapshot algebra",
        [
          QCheck_alcotest.to_alcotest prop_merge_algebra;
          QCheck_alcotest.to_alcotest prop_merge_canonical_json;
          QCheck_alcotest.to_alcotest prop_snapshot_json_round_trip;
        ] );
      ("metering", [ tc "pure observation" `Quick test_meter_does_not_perturb_results ]);
      ( "campaign attribution",
        [
          tc "profile reconciles with metrics" `Quick test_campaign_profile_reconciles;
          tc "obs outputs jobs-invariant" `Quick test_campaign_obs_jobs_invariant;
        ] );
      ("fuzz metrics", [ tc "snapshot jobs-invariant" `Quick test_fuzz_snapshot_jobs_invariant ]);
      ( "report",
        [
          tc "informational rows" `Quick test_report_informational_rows_never_regress;
          tc "simulated-metric tolerance" `Quick test_report_simulated_metric_tolerance;
          tc "throughput collapse" `Quick test_report_throughput_collapse_only;
          tc "regressions filter" `Quick test_report_regressions_filter;
        ] );
      ( "progress",
        [
          tc "mode parsing" `Quick test_progress_mode_parse;
          tc "blocked sink stalls only its reporter" `Quick test_progress_blocked_sink_isolated;
          tc "sink calls serialized across domains" `Quick test_progress_sink_serialized;
        ] );
    ]
