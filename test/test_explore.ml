(* Tests for the snapshottable-machine stack: total machine snapshots,
   the resumable engine stepper, and the reboot-space explorer. *)

open Platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Snapshot round-trip (property)}

   A total machine snapshot survives arbitrary perturbation: capture,
   scribble over both memories, restore — the machine must be
   indistinguishable from the capture point (word-exact memories and
   equal total-state hashes), no matter what was written in between. *)

let write_gen =
  QCheck.Gen.(
    triple (oneofl [ Memory.Fram; Memory.Sram ]) (int_bound 4095) (int_bound 0xFFFF))

let writes_arb =
  QCheck.make
    ~print:(fun ws ->
      String.concat ";"
        (List.map
           (fun (sp, a, v) ->
             Printf.sprintf "%s[%d]=%d"
               (match sp with Memory.Fram -> "fram" | _ -> "sram")
               a v)
           ws))
    QCheck.Gen.(list_size (int_range 0 64) write_gen)

let test_snapshot_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"snapshot/restore round-trip"
       (QCheck.pair writes_arb writes_arb)
       (fun (before, after) ->
         let m = Machine.create ~seed:11 () in
         let apply ws = List.iter (fun (sp, a, v) -> Memory.write (Machine.mem m sp) a v) ws in
         apply before;
         let s1 = Machine.snapshot m in
         apply after;
         Machine.restore_snapshot m s1;
         let s2 = Machine.snapshot m in
         List.for_all
           (fun (sp, a, _) ->
             let image =
               match sp with
               | Memory.Fram -> Machine.snapshot_fram s1
               | _ -> Machine.snapshot_sram s1
             in
             Memory.read (Machine.mem m sp) a = Memory.image_get image a)
           after
         && Machine.snapshot_hash s1 = Machine.snapshot_hash s2
         && Machine.snapshot_behavior_hash s1 = Machine.snapshot_behavior_hash s2))

(* The behavior key read in place equals the captured one, with or
   without a copy-on-write base, and the live machine equals a snapshot
   exactly when their images hold the same words. *)
let test_live_behavior_key =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"live behavior key = captured key"
       (QCheck.pair writes_arb writes_arb)
       (fun (before, after) ->
         let m = Machine.create ~seed:11 () in
         let apply ws = List.iter (fun (sp, a, v) -> Memory.write (Machine.mem m sp) a v) ws in
         apply before;
         let untracked = Machine.behavior_hash m in
         let s1 = Machine.snapshot m in
         apply after;
         let live = Machine.behavior_hash m and same = Machine.same_behavior m s1 in
         let s2 = Machine.snapshot m in
         let words_equal =
           List.for_all
             (fun (img1, img2) ->
               List.for_all
                 (fun a -> Memory.image_get img1 a = Memory.image_get img2 a)
                 (List.init 4096 Fun.id))
             [
               (Machine.snapshot_fram s1, Machine.snapshot_fram s2);
               (Machine.snapshot_sram s1, Machine.snapshot_sram s2);
             ]
         in
         untracked = Machine.snapshot_behavior_hash s1
         && live = Machine.snapshot_behavior_hash s2
         && same = words_equal))

(* {1 Stepper = Engine.run}

   Driving an app through the resumable stepper (start / pause at the
   boundary / resume) must be byte-identical to the one-shot
   [Engine.run] path used by [spec.run] — same outcome, metrics,
   energy, event counters and I/O executions — for every catalog app,
   runtime and failure shape. *)

let catalog =
  [
    ("dma", Apps.Uni.dma);
    ("temp", Apps.Uni.temp);
    ("lea", Apps.Uni.lea);
    ("fir", Apps.Fir.spec);
    ("weather", Apps.Weather.spec);
  ]

let start session =
  session.Apps.Common.ses_begin ();
  Kernel.Engine.start ~hooks:session.Apps.Common.ses_hooks
    ?cur_slot:session.Apps.Common.ses_cur_slot session.Apps.Common.ses_machine
    session.Apps.Common.ses_app

let run_session session =
  let o = Kernel.Engine.drive (start session) in
  session.Apps.Common.ses_finish ();
  Expkit.Run.of_outcome session.Apps.Common.ses_machine o

let test_stepper_matches_run () =
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun variant ->
          List.iter
            (fun failure ->
              let seed = 5 in
              let via_run = spec.Apps.Common.run variant ~failure ~seed in
              let session = (Option.get spec.Apps.Common.session) variant ~seed in
              Machine.set_failure session.Apps.Common.ses_machine failure;
              let via_stepper = run_session session in
              checkb
                (Printf.sprintf "%s/%s/%s stepper = run" name
                   (Apps.Common.variant_name variant)
                   (Failure.to_string failure))
                true
                (via_run = via_stepper))
            [
              Failure.No_failures;
              Failure.Nth_charge 3;
              Failure.Nth_charge 7;
              Failure.paper_timer;
            ])
        [ Apps.Common.Easeio; Apps.Common.Alpaca; Apps.Common.Ink ])
    catalog

(* {1 The checkpoint walker} *)

(* The engine charges nothing before its first attempt top, so every
   boundary of a fresh run has a checkpoint strictly before it. *)
let test_first_checkpoint_at_power_on () =
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun variant ->
          let session = (Option.get spec.Apps.Common.session) variant ~seed:1 in
          let _, walk = Kernel.Walker.pace ~save:ignore (start session) in
          checki
            (Printf.sprintf "%s/%s first checkpoint" name (Apps.Common.variant_name variant))
            0
            (Kernel.Walker.first_charges walk))
        Apps.Common.all_variants)
    catalog

let test_seek_behind_cursor_raises () =
  let session = (Option.get Apps.Fir.spec.Apps.Common.session) Apps.Common.Easeio ~seed:1 in
  let _, walk = Kernel.Walker.pace ~save:ignore (start session) in
  let raises what k =
    match Kernel.Walker.seek walk k with
    | () -> Alcotest.failf "seek to %s resumed" what
    | exception Invalid_argument _ -> ()
  in
  raises "the first checkpoint's charge count" (Kernel.Walker.first_charges walk);
  Kernel.Walker.seek walk 2_000;
  raises "a boundary behind the previous seek" 1

(* {1 Explorer vs the exhaustive boundary sweep}

   At depth 1 the explorer places one failure at every boundary, as the
   sweep does. Unpruned, its findings are exactly the sweep's failed
   cases, boundary by boundary and violation by violation. *)

let test_explorer_agrees_with_sweep () =
  List.iter
    (fun (name, spec, variant, prune, clean) ->
      let r = Explore.explore ~prune spec variant ~seed:1 in
      let report =
        Faultkit.Campaign.run ~jobs:1
          ~sweep:(Faultkit.Campaign.Boundaries { stride = 1 })
          ~variants:[ variant ] spec
      in
      let cell = List.hd report.Faultkit.Campaign.cells in
      let found =
        List.map
          (fun f -> (Failure.Nth_charge (List.hd f.Explore.reboots), f.Explore.violations))
          r.Explore.findings
      in
      let failed =
        List.map
          (fun (c : Faultkit.Campaign.case) -> (c.schedule, c.violations))
          (Faultkit.Campaign.failed_cases cell.Faultkit.Campaign.failed)
      in
      checkb (name ^ ": explorer clean") clean (Explore.passed r);
      checkb (name ^ ": sweep clean") clean (Faultkit.Campaign.passed report);
      checki (name ^ ": same boundary space") cell.Faultkit.Campaign.boundaries
        r.Explore.boundaries;
      checkb (name ^ ": findings = failed cases") true (found = failed);
      checkb (name ^ ": pruning collapsed the space") prune (r.Explore.pruned > 0);
      checkb (name ^ ": not truncated") false r.Explore.truncated)
    [
      ("weather", Apps.Weather.spec, Apps.Common.Easeio, true, true);
      ("fir", Apps.Fir.spec, Apps.Common.Easeio, true, true);
      ("fir/alpaca", Apps.Fir.spec, Apps.Common.Alpaca, false, false);
    ]

(* {1 Prune soundness (the explorer's core claim)}

   Pruning skips states with an already-visited behavior hash; equal-hash
   states evolve identically, so skipping one can drop a reboot
   *schedule* from the report but never a distinct *violation*. An
   ablated pipeline gives a violation-dense space: both walks must
   surface the same set of distinct violation payloads. *)

let violation_set r =
  List.sort_uniq compare
    (List.concat_map (fun f -> f.Explore.violations) r.Explore.findings)

let test_prune_soundness () =
  let spec = Apps.Fir.spec in
  let pruned = Explore.explore ~ablate_semantics:true spec Apps.Common.Easeio ~seed:1 in
  let full = Explore.explore ~prune:false ~ablate_semantics:true spec Apps.Common.Easeio ~seed:1 in
  checkb "ablated pipeline has findings" true (pruned.Explore.findings <> []);
  checki "no-prune walk prunes nothing" 0 full.Explore.pruned;
  checki "pruned walk visits fewer states" 0
    (if pruned.Explore.states < full.Explore.states then 0 else 1);
  checkb "pruned findings are a subset of the full walk's" true
    (List.for_all (fun f -> List.mem f full.Explore.findings) pruned.Explore.findings);
  checkb "same distinct violations with and without pruning" true
    (violation_set pruned = violation_set full)

(* Every simulated segment of a walk flushes its VM dispatch counts, so
   [vm/*] sums the walk as [engine/*] does: each explored state runs its
   continuation to the final [stop]. *)
let test_walk_counts_every_dispatch () =
  let r = Explore.explore ~depth:1 Apps.Fir.spec Apps.Common.Easeio ~seed:1 in
  let counter name = Obs.Snapshot.counter r.Explore.snap name in
  checkb "several states" true (r.Explore.states > 1);
  checkb "vm/op/stop >= explore/states" true (counter "vm/op/stop" >= counter "explore/states")

let () =
  Alcotest.run "explore"
    [
      ("snapshot", [ test_snapshot_round_trip; test_live_behavior_key ]);
      ( "stepper",
        [ Alcotest.test_case "byte-identical to Engine.run" `Quick test_stepper_matches_run ] );
      ( "walker",
        [
          Alcotest.test_case "first checkpoint at charge 0" `Quick
            test_first_checkpoint_at_power_on;
          Alcotest.test_case "seek at or behind the cursor raises" `Quick
            test_seek_behind_cursor_raises;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "agrees with the exhaustive sweep" `Quick
            test_explorer_agrees_with_sweep;
          Alcotest.test_case "pruning is sound" `Quick test_prune_soundness;
          Alcotest.test_case "vm counts sum the walk" `Quick test_walk_counts_every_dispatch;
        ] );
    ]
