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
          let _, walk = Kernel.Walker.pace ~save:(fun () -> ignore) (start session) in
          checki
            (Printf.sprintf "%s/%s first checkpoint" name (Apps.Common.variant_name variant))
            0
            (Kernel.Walker.first_charges walk))
        Apps.Common.all_variants)
    catalog

(* Boundaries are placed going forward: one at or before the first
   checkpoint, at or behind the last one placed, or past the paced run
   is refused before anything moves. *)
let test_fail_behind_cursor_raises () =
  let session = (Option.get Apps.Fir.spec.Apps.Common.session) Apps.Common.Easeio ~seed:1 in
  let _, walk = Kernel.Walker.pace ~save:(fun () -> ignore) (start session) in
  let last = Machine.charges session.Apps.Common.ses_machine in
  let raises what k =
    match Kernel.Walker.fail walk k with
    | _ -> Alcotest.failf "failing at %s placed a boundary" what
    | exception Invalid_argument _ -> ()
  in
  raises "the first checkpoint's charge count" (Kernel.Walker.first_charges walk);
  raises "a boundary past the run" (last + 1);
  ignore (Kernel.Walker.fail walk 2_000 : Kernel.Engine.step);
  raises "the boundary just placed" 2_000;
  raises "a boundary behind the previous one" 1

(* {2 Captures against re-simulation}

   The reference positioning: restore the latest attempt-top checkpoint
   strictly before boundary [k], latch [Nth_charge k] and re-simulate
   into the failure. [Walker.fail] must leave the session, the machine
   and every observer exactly as this does, with the events before the
   failure filtered to the {!Kernel.Walker.observed} kinds. *)

type ref_mark = {
  r_ck : Kernel.Engine.checkpoint;
  r_extras : unit -> unit;
  r_cursor : int;
  r_sheet : Obs.Sheet.t option;
}

(* [sink], handed only the observed events until the failure's own *)
let observed_until_failure sink =
  let failed = ref false in
  fun (e : Trace.Event.t) ->
    (match e.payload with Trace.Event.Power_failure _ -> failed := true | _ -> ());
    if !failed || Kernel.Walker.observed e then sink e

let reference_fail ?sink ~restart engine marks events k =
  let m = Kernel.Engine.machine engine in
  let i = ref 0 in
  while !i + 1 < Array.length marks && Kernel.Engine.checkpoint_charges marks.(!i + 1).r_ck < k do
    incr i
  done;
  let mark = marks.(!i) in
  Option.iter
    (fun sink ->
      for i = 0 to mark.r_cursor - 1 do
        sink events.(i)
      done;
      Machine.set_sink m sink;
      Option.iter (fun sheet -> Machine.set_meter m (Obs.Sheet.copy sheet)) mark.r_sheet)
    sink;
  Option.iter (fun sink -> Machine.set_sink m (observed_until_failure sink)) (Machine.sink m);
  Kernel.Engine.restore engine mark.r_ck;
  Machine.set_failure m (Failure.Nth_charge k);
  mark.r_extras ();
  restart ();
  Kernel.Engine.run_until_boundary engine

let recorder () =
  let events = ref [] in
  ((fun e -> events := e :: !events), fun () -> List.rev !events)

exception Next_attempt of string * int

(* Pace a session as the sweeps do ([taped]: a tape, and a sheet copied
   at each attempt top) or as the explorer does (its own observers stay
   attached and VM counts restart at each attempt top), and place every
   boundary of [ks] both ways: with a [sink] of the case's own (taped
   walks only), or into the machine's observers. Returns how many
   placements failed past a commit and how many finished the run. *)
let captures_match ~taped ~sink ~ks name (spec : Apps.Common.spec) variant =
  let session = (Option.get spec.Apps.Common.session) variant ~seed:1 in
  let m = session.Apps.Common.ses_machine in
  let what = Printf.sprintf "%s/%s" name (Apps.Common.variant_name variant) in
  let events = ref [] and len = ref 0 in
  let tape, record = Kernel.Walker.tape () in
  Machine.set_sink m (fun e ->
      record e;
      if Kernel.Walker.observed e then begin
        events := e :: !events;
        incr len
      end);
  Machine.set_meter m (Obs.Sheet.create ());
  let engine = start session in
  let pacing = ref true and marks = ref [] in
  let save () =
    let extras = session.Apps.Common.ses_save () in
    if !pacing then
      marks :=
        {
          r_ck = Kernel.Engine.checkpoint engine;
          r_extras = extras;
          r_cursor = (if taped then !len else 0);
          r_sheet = (if taped then Option.map Obs.Sheet.copy (Machine.meter m) else None);
        }
        :: !marks;
    extras
  in
  let restart = if taped then ignore else session.Apps.Common.ses_begin in
  let _, walk =
    if taped then Kernel.Walker.pace ~tape ~save engine
    else Kernel.Walker.pace ~restart ~save engine
  in
  pacing := false;
  let marks = Array.of_list (List.rev !marks) and events = Array.of_list (List.rev !events) in
  let deferred = ref 0 and finished = ref 0 in
  (* where a placement left everything, observers included, and the
     task and number of the attempt that follows a reboot *)
  let placed place =
    let case_sink, got = recorder () in
    if not sink then begin
      Machine.set_sink m case_sink;
      Machine.set_meter m (Obs.Sheet.create ())
    end;
    let step = place (if sink then Some case_sink else None) in
    session.Apps.Common.ses_finish ();
    let sheet = Option.get (Machine.meter m) in
    let snap = Machine.snapshot m in
    let state =
      ( Machine.snapshot_hash snap,
        Kernel.Metrics.copy (Kernel.Engine.metrics engine),
        Kernel.Engine.stalled engine,
        Machine.tag m,
        Machine.failure_spec m )
    and observed = (Machine.events m, got (), Obs.Snapshot.of_sheet sheet) in
    let radio = Periph.Radio.log session.Apps.Common.ses_radio in
    match step with
    | Kernel.Engine.Finished o -> (Some (Expkit.Run.of_outcome m o), state, observed, radio, None)
    | Kernel.Engine.Paused -> (
        Kernel.Engine.resume engine;
        Machine.set_sink m (fun e ->
            match e.Trace.Event.payload with
            | Trace.Event.Task_start { task; attempt } -> raise (Next_attempt (task, attempt))
            | _ -> ());
        match Kernel.Engine.run_until_boundary engine with
        | _ -> (None, state, observed, radio, None)
        | exception Next_attempt (task, attempt) ->
            (None, state, observed, radio, Some (task, attempt)))
  in
  List.iter
    (fun k ->
      let ((step, _, (_, got, _), _, _) as via_walker) =
        placed (fun sink -> Kernel.Walker.fail ?sink walk k)
      in
      let via_reference = placed (fun sink -> reference_fail ?sink ~restart engine marks events k) in
      if via_walker <> via_reference then
        Alcotest.failf "%s: failing at charge %d, the capture differs from re-simulation" what k;
      (* a failure deferred past the commit: the commit follows it *)
      (match List.rev got with
      | { Trace.Event.payload = Trace.Event.Task_commit _; _ }
        :: { Trace.Event.payload = Trace.Event.Power_failure _; _ }
        :: _ ->
          incr deferred
      | _ -> ());
      if step <> None then incr finished)
    ks;
  (!deferred, !finished)

(* The fuzzer's clean programs, every boundary of each: taped with a
   case sink (the sweeps' way) on odd seeds, untaped (the explorer's)
   on even ones. *)
let generated =
  List.filter_map
    (fun seed ->
      let case = Conformance.Gen.generate ~seed in
      match case.Conformance.Gen.intent with
      | Conformance.Gen.Expect _ -> None
      | Conformance.Gen.Clean ->
          let name = Printf.sprintf "generated %d" seed and taped = seed mod 2 = 1 in
          let src = Lang.Pretty.program_to_string case.Conformance.Gen.prog in
          Some (name, Progs.spec_of_source ~name src, 1, taped, taped))
    (List.init 40 (fun i -> i + 1))

let test_captures_match_resimulation () =
  let deferred = ref 0 and finished = ref 0 in
  let count (d, f) =
    deferred := !deferred + d;
    finished := !finished + f
  in
  List.iter
    (fun (name, spec, stride, taped, sink) ->
      List.iter
        (fun variant ->
          let session = (Option.get spec.Apps.Common.session) variant ~seed:1 in
          ignore (run_session session : Expkit.Run.one);
          let charges = Machine.charges session.Apps.Common.ses_machine in
          (* every [stride]-th boundary, and the final commit's *)
          let ks =
            List.sort_uniq compare
              (List.init ((charges + stride - 1) / stride) (fun i -> 1 + (i * stride))
              @ List.init (Int.min 12 charges) (fun i -> charges - i))
          in
          count (captures_match ~taped ~sink ~ks name spec variant))
        Apps.Common.all_variants)
    ([
       ("dma", Apps.Uni.dma, 1, true, true);
       ("lea", Apps.Uni.lea, 1, true, true);
       ("temp", Apps.Uni.temp, 1, true, true);
       ("fir", Apps.Fir.spec, 7, true, true);
       ("weather", Apps.Weather.spec, 7, true, true);
       ("fir", Apps.Fir.spec, 11, false, false);
       ("weather", Apps.Weather.spec, 11, false, false);
       ("fir", Apps.Fir.spec, 13, true, false);
       ("weather", Apps.Weather.spec, 13, true, false);
     ]
    @ generated);
  checkb "some failures were deferred past a commit" true (!deferred > 0);
  checkb "some deferred failures finished the run" true (!finished > 0)

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

   Pruning skips states already visited; equal states evolve
   identically, so skipping one can drop a reboot *schedule* from the
   report but never a distinct *violation*. An ablated pipeline gives a
   violation-dense space, and [Progs.radio_log] two reboot states that
   only the radio's receiver log tells apart: each walk must surface
   the same set of distinct violation payloads pruned as unpruned. *)

let violation_set r =
  List.sort_uniq compare
    (List.concat_map (fun f -> f.Explore.violations) r.Explore.findings)

let test_prune_soundness () =
  List.iter
    (fun (what, explore) ->
      let pruned = explore ~prune:true and full = explore ~prune:false in
      checkb (what ^ ": has findings") true (pruned.Explore.findings <> []);
      checki (what ^ ": no-prune walk prunes nothing") 0 full.Explore.pruned;
      checkb (what ^ ": pruned walk visits fewer states") true
        (pruned.Explore.states < full.Explore.states);
      checkb (what ^ ": pruned findings are a subset of the full walk's") true
        (List.for_all (fun f -> List.mem f full.Explore.findings) pruned.Explore.findings);
      checkb (what ^ ": same distinct violations with and without pruning") true
        (violation_set pruned = violation_set full))
    (( "FIR, ablated semantics",
       fun ~prune ->
         Explore.explore ~prune ~ablate_semantics:true Apps.Fir.spec Apps.Common.Easeio ~seed:1 )
    :: List.map
         (fun variant ->
           ( "radio log/" ^ Apps.Common.variant_name variant,
             fun ~prune -> Explore.explore ~prune Progs.radio_log variant ~seed:1 ))
         Apps.Common.all_variants)

(* Every simulated segment of a walk flushes its VM dispatch counts, so
   [vm/*] sums the walk as [engine/*] does: each explored state runs its
   continuation to the final [stop]. *)
let test_walk_counts_every_dispatch () =
  let r = Explore.explore ~depth:1 Apps.Fir.spec Apps.Common.Easeio ~seed:1 in
  let counter name = Obs.Snapshot.counter r.Explore.snap name in
  checkb "several states" true (r.Explore.states > 1);
  checkb "vm/op/stop >= explore/states" true (counter "vm/op/stop" >= counter "explore/states")

(* {1 The prune key}

   A sensor sample leaves nothing behind that outlives a reboot but its
   event count, which the behavior key leaves out: failing Temp under
   Alpaca just before one sample and just after it, in the same
   attempt, reboots into one state under one key. *)
let test_sample_count_not_keyed () =
  let session () = (Option.get Apps.Uni.temp.Apps.Common.session) Apps.Common.Alpaca ~seed:1 in
  (* a sample bumps its counter and then charges its conversion *)
  let sample =
    let s = session () in
    let m = s.Apps.Common.ses_machine in
    let at = ref None in
    Machine.set_sink m (fun e ->
        match e.Trace.Event.payload with
        | Trace.Event.Count { name = "io:Temp"; _ } when !at = None ->
            at := Some (Machine.charges m + 1)
        | _ -> ());
    ignore (run_session s : Expkit.Run.one);
    Option.get !at
  in
  let rebooted k =
    let s = session () in
    let m = s.Apps.Common.ses_machine in
    Machine.set_failure m (Failure.Nth_charge k);
    let engine = start s in
    (match Kernel.Engine.run_until_boundary engine with
    | Kernel.Engine.Paused -> Kernel.Engine.resume engine
    | Kernel.Engine.Finished _ -> Alcotest.failf "no failure at charge %d" k);
    checki (Printf.sprintf "charge %d: one failure" k) 1 (Machine.failures m);
    (m, Machine.clock_reads m)
  in
  let m, before_reads = rebooted sample in
  let before = Machine.snapshot m and before_key = Machine.behavior_hash m in
  let m, after_reads = rebooted (sample + 1) in
  checki "the sample completed before the second failure only" (before_reads + 1) after_reads;
  checkb "same behavior" true (Machine.same_behavior m before);
  checki "same behavior hash" before_key (Machine.behavior_hash m)

(* The table the explorer prunes by and resumed sweeps share
   continuations by finds a state whose packets carry the same payloads
   at other times, and tells apart one FRAM word or one more aborted
   attempt. *)
let test_seen_table () =
  let s = (Option.get Progs.radio_log.Apps.Common.session) Apps.Common.Easeio ~seed:1 in
  let m = s.Apps.Common.ses_machine and radio = s.Apps.Common.ses_radio in
  let engine = start s in
  let seen = Faultkit.Seen.create () in
  let found what expected =
    match Faultkit.Seen.find seen engine radio with
    | Faultkit.Seen.Hit v -> Alcotest.(check string) what expected v
    | Faultkit.Seen.Miss _ -> Alcotest.failf "%s: not found" what
  in
  let missed what =
    match Faultkit.Seen.find seen engine radio with
    | Faultkit.Seen.Hit v -> Alcotest.failf "%s: found %S" what v
    | Faultkit.Seen.Miss miss -> miss
  in
  let empty = Periph.Radio.snapshot radio in
  Periph.Radio.send radio [| 42 |];
  Faultkit.Seen.add seen (missed "an empty table") "sent";
  found "the state itself" "sent";
  let sent_at () = List.map fst (Periph.Radio.log radio) in
  let first = sent_at () in
  (* the clock has moved on since the first send *)
  Periph.Radio.restore radio empty;
  Periph.Radio.send radio [| 42 |];
  checkb "sent at another time" true (sent_at () <> first);
  found "equal payloads at other times" "sent";
  let fram = Machine.mem m Memory.Fram in
  let word = Memory.read fram 0 in
  Memory.write fram 0 (word + 1);
  ignore (missed "one FRAM word" : Faultkit.Seen.miss);
  Memory.write fram 0 word;
  found "the word written back" "sent";
  (* fail the first attempt at its first charge, twice: nothing is
     written in between *)
  let abort_first_charge () =
    Machine.set_failure m (Failure.Nth_charge (Machine.charges m + 1));
    match Kernel.Engine.run_until_boundary engine with
    | Kernel.Engine.Paused -> Kernel.Engine.resume engine
    | Kernel.Engine.Finished _ -> Alcotest.fail "the attempt did not fail"
  in
  abort_first_charge ();
  checki "one aborted attempt" 1 (Kernel.Engine.stalled engine);
  let once = Machine.snapshot m in
  Faultkit.Seen.add seen (missed "one aborted attempt") "stalled once";
  abort_first_charge ();
  checki "two aborted attempts" 2 (Kernel.Engine.stalled engine);
  checkb "the same machine behavior" true (Machine.same_behavior m once);
  ignore (missed "another watchdog count" : Faultkit.Seen.miss)

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
            test_fail_behind_cursor_raises;
          Alcotest.test_case "captures match re-simulation" `Quick
            test_captures_match_resimulation;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "agrees with the exhaustive sweep" `Quick
            test_explorer_agrees_with_sweep;
          Alcotest.test_case "pruning is sound" `Quick test_prune_soundness;
          Alcotest.test_case "vm counts sum the walk" `Quick test_walk_counts_every_dispatch;
          Alcotest.test_case "sample counts share a key" `Quick test_sample_count_not_keyed;
          Alcotest.test_case "one state table" `Quick test_seen_table;
        ] );
    ]
