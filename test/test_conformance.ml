(* Tests for the conformance-fuzzing subsystem: generator determinism
   and validity, the differential judge on the shipped pipeline and on
   a deliberately ablated one, shrinker behavior (including the
   soundness property: every accepted shrink step is still a valid
   program that fails the same way), and report determinism across job
   counts. *)

open Conformance

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Same per-case seed derivation as Fuzz.run, so findings here are
   reproducible with `easeio fuzz --seed 1`. *)
let case_seed ~seed i = Platform.Rng.hash2 (Platform.Rng.hash2 seed 0x6a77) i

let ablated_config = { Judge.default_config with budget = 12; ablate_regions = true }
let small_config = { Judge.default_config with budget = 8 }

(* {1 Generator} *)

let test_gen_deterministic () =
  for i = 0 to 19 do
    let seed = case_seed ~seed:3 i in
    let a = Gen.generate ~seed and b = Gen.generate ~seed in
    checkb "same intent" true (a.Gen.intent = b.Gen.intent);
    checks "same program"
      (Lang.Pretty.program_to_string a.Gen.prog)
      (Lang.Pretty.program_to_string b.Gen.prog)
  done

let test_gen_clean_cases_valid () =
  let clean = ref 0 in
  for i = 0 to 99 do
    let case = Gen.generate ~seed:(case_seed ~seed:5 i) in
    match case.Gen.intent with
    | Gen.Clean ->
        incr clean;
        checkb "clean case satisfies the shrinker invariant" true (Gen.valid case.Gen.prog)
    | Gen.Expect _ -> ()
  done;
  checkb "most cases are clean" true (!clean >= 70)

let test_gen_roundtrips () =
  for i = 0 to 29 do
    let case = Gen.generate ~seed:(case_seed ~seed:11 i) in
    let printed = Lang.Pretty.program_to_string case.Gen.prog in
    let reparsed = Lang.Parser.parse printed in
    checkb "pretty/parse identity" true
      (Lang.Ast.strip reparsed = Lang.Ast.strip case.Gen.prog)
  done

(* {1 Judge} *)

let test_judge_clean_on_shipped_pipeline () =
  for i = 0 to 19 do
    let case = Gen.generate ~seed:(case_seed ~seed:1 i) in
    let out = Judge.judge ~config:small_config case in
    match out.Judge.violations with
    | [] -> ()
    | v :: _ ->
        Alcotest.failf "seed %d: unexpected violation %s" case.Gen.gen_seed (Judge.describe v)
  done

(* A Plain run carries a CPU WAR on [a0] ([g0 = a0[0]] before the loop
   rewrites [a0]): after a reboot [g0] reads the rewritten word, [t0]
   stops and [t1]'s DMA never runs. An unprotected runtime may take
   another branch after a reboot, so its divergence is expected-unsafe
   and its I/O count has no floor (fuzz seed 11, case 41, shrunk). *)
let plain_branch_src =
  {|
program fuzz_2798946199221101360;

nv int g0 = 2;
nv int g2 = 6;
nv int a0[8] = {90, 48, 99, 28, 31, 34, 39, 11};
nv int a1[8] = {81, 51, 3, 66, 30, 90, 48, 76};

task t0 {
  g0 = a0[0];
  for i0 = 0 to 7 {
    a0[i0] = (i0 * 3) + 5;
  }
  if (g0 > 5) {
    next t1;
  } else {
    stop;
  }
}

task t1 {
  dma_copy(a1[0], a0[0], 8);
  if (g2 == 3) {
    stop;
  } else {
    stop;
  }
}
|}

let test_judge_plain_branch_has_no_io_floor () =
  let prog = Lang.Parser.parse plain_branch_src in
  let out = Judge.judge { Gen.gen_seed = 2798946199221101360; intent = Gen.Clean; prog } in
  List.iter
    (fun v -> Alcotest.failf "unexpected violation %s" (Judge.describe v))
    out.Judge.violations;
  checkb "Plain divergence counted as expected-unsafe" true
    (List.mem_assoc "Plain" out.Judge.unsafe_baseline)

(* The VM shadow is failed at the tree walker's boundary probes, so a VM
   that runs fewer charges than the tree walker meets probes past its
   own run. Each must be reported as a divergence, not refused: here the
   shadow compiles the same program with a shorter loop. *)
let test_judge_reports_short_vm () =
  let prog = Lang.Parser.parse plain_branch_src in
  let short =
    let loop = "for i0 = 0 to 7" in
    let rec at i = if String.sub plain_branch_src i (String.length loop) = loop then i else at (i + 1) in
    let i = at 0 in
    Lang.Parser.parse
      (String.sub plain_branch_src 0 i
      ^ "for i0 = 0 to 3"
      ^ String.sub plain_branch_src (i + String.length loop)
          (String.length plain_branch_src - i - String.length loop))
  in
  let charges prog policy =
    let m =
      Platform.Machine.create ~seed:Judge.default_config.machine_seed
        ~failure:Platform.Failure.No_failures ()
    in
    ignore (Lang.Interp.run (Lang.Interp.build ~policy m prog) : Kernel.Engine.outcome);
    Platform.Machine.charges m
  in
  let out =
    Judge.judge ~vm_program:short { Gen.gen_seed = 2798946199221101360; intent = Gen.Clean; prog }
  in
  List.iter
    (fun policy ->
      let name = Lang.Interp.policy_name policy and last = charges prog policy in
      checkb (name ^ ": the VM runs short") true (charges short policy < last);
      let schedule = Platform.Failure.to_string (Platform.Failure.Nth_charge last) in
      checkb (name ^ ": the last boundary is a divergence") true
        (List.exists
           (fun v ->
             v.Judge.vkind = "vm-diverge" && v.Judge.variant = name && v.Judge.schedule = schedule)
           out.Judge.violations))
    [ Lang.Interp.Plain; Lang.Interp.Alpaca; Lang.Interp.Ink; Lang.Interp.Easeio ]

(* The W0403 acceptance criterion: with regional privatization ablated,
   the harness finds an NV-state divergence and shrinks it small. *)
let find_ablated_counterexample () =
  let rec go i =
    if i >= 200 then Alcotest.fail "no ablated counterexample in 200 cases"
    else
      let case = Gen.generate ~seed:(case_seed ~seed:1 i) in
      let out = Judge.judge ~stop_early:true ~config:ablated_config case in
      let nv_state v = v.Judge.vkind = "nv-state" in
      if case.Gen.intent = Gen.Clean && List.exists nv_state out.Judge.violations then (case, out)
      else go (i + 1)
  in
  go 0

let test_ablated_regions_found_and_shrunk () =
  let case, out = find_ablated_counterexample () in
  let keys = List.map Judge.key out.Judge.violations in
  let fails p =
    let out' =
      Judge.judge ~stop_early:true ~config:ablated_config { case with Gen.prog = p }
    in
    List.exists (fun v -> List.mem (Judge.key v) keys) out'.Judge.violations
  in
  let shrunk, accepted, _checks =
    Shrink.minimize ~max_checks:200 ~valid:Gen.valid ~fails case.Gen.prog
  in
  checkb "shrinker made progress" true (accepted > 0);
  checkb
    (Printf.sprintf "shrunk to %d statements (<= 12)" (Gen.stmt_count shrunk))
    true
    (Gen.stmt_count shrunk <= 12);
  checkb "shrunk program still fails the same way" true (fails shrunk)

(* {1 Shrinker} *)

let test_shrink_removes_statements_and_tasks () =
  let prog =
    Lang.Parser.parse
      {|
program p;
nv int g0;
nv int unused;

task t0 {
  g0 = 1;
  g0 = 2;
  next t1;
}

task t1 {
  g0 = 3;
  stop;
}
|}
  in
  (* oracle: "g0 is ever assigned 2" — everything else should go *)
  let fails p =
    let found = ref false in
    List.iter
      (fun (t : Lang.Ast.task) ->
        Lang.Ast.iter_stmts
          (fun st ->
            match st.Lang.Ast.s with
            | Lang.Ast.Assign ("g0", Lang.Ast.Int 2) -> found := true
            | _ -> ())
          t.Lang.Ast.t_body)
      p.Lang.Ast.p_tasks;
    !found
  in
  let shrunk, accepted, _ = Shrink.minimize ~valid:Gen.valid ~fails prog in
  checkb "accepted deletions" true (accepted >= 3);
  checki "one task left" 1 (List.length shrunk.Lang.Ast.p_tasks);
  checki "two statements left" 2 (Gen.stmt_count shrunk);
  checki "unused global dropped" 1 (List.length shrunk.Lang.Ast.p_globals)

(* Shrinker soundness, as a qcheck property over generated programs:
   every intermediate program the shrinker accepts (a) pretty-prints to
   source that re-parses to itself, (b) satisfies the structural
   validity invariant, and (c) still fails the same judge key as the
   original — i.e. minimization never changes which bug is exhibited. *)
let prop_shrinker_soundness =
  QCheck.Test.make ~count:6 ~name:"every accepted shrink step is valid and fails the same way"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 199))
    (fun i ->
      let case = Gen.generate ~seed:(case_seed ~seed:1 i) in
      let out = Judge.judge ~stop_early:true ~config:ablated_config case in
      match (case.Gen.intent, out.Judge.violations) with
      | Gen.Expect _, _ | _, [] -> true (* nothing to shrink: trivially sound *)
      | Gen.Clean, vs ->
          let keys = List.map Judge.key vs in
          let fails p =
            let out' =
              Judge.judge ~stop_early:true ~config:ablated_config { case with Gen.prog = p }
            in
            List.exists (fun v -> List.mem (Judge.key v) keys) out'.Judge.violations
          in
          let sound = ref true in
          let on_accept p =
            let printed = Lang.Pretty.program_to_string p in
            (match Lang.Parser.parse printed with
            | reparsed ->
                if Lang.Ast.strip reparsed <> Lang.Ast.strip p then sound := false
            | exception Lang.Parser.Error _ -> sound := false);
            if not (Gen.valid p) then sound := false
          in
          let shrunk, _, _ =
            Shrink.minimize ~max_checks:60 ~on_accept ~valid:Gen.valid ~fails case.Gen.prog
          in
          !sound && fails shrunk)

(* {1 Campaign reports} *)

let small_options =
  { Fuzz.default_options with count = 12; seed = 2; budget = 8; max_shrink = 40 }

let test_fuzz_report_deterministic_across_jobs () =
  let a = Fuzz.run { small_options with jobs = 1 } in
  let b = Fuzz.run { small_options with jobs = 2 } in
  checks "byte-identical JSON for jobs 1 vs 2"
    (Trace.Json.to_string (Fuzz.to_json a))
    (Trace.Json.to_string (Fuzz.to_json b))

let test_fuzz_clean_campaign_passes () =
  let r = Fuzz.run { small_options with jobs = 2 } in
  checki "cases" 12 r.Fuzz.cases;
  checki "no violations on the shipped pipeline" 0 r.Fuzz.violating;
  checkb "campaign passes" true (Fuzz.passed r);
  checki "every case accounted for" 12 (r.Fuzz.clean + r.Fuzz.expected_diag + r.Fuzz.violating)

let test_fuzz_ablated_campaign_fails_with_reproducers () =
  let r = Fuzz.run { small_options with count = 20; seed = 1; jobs = 2; ablate_regions = true } in
  checkb "ablated campaign is caught" true (not (Fuzz.passed r));
  checkb "counterexamples recorded" true (r.Fuzz.counterexamples <> []);
  List.iter
    (fun c ->
      checkb "shrunk no larger than original" true
        (c.Fuzz.shrunk_stmts <= c.Fuzz.original_stmts);
      let text = Fuzz.reproducer r.Fuzz.options c in
      (* the reproducer must be a self-contained, re-parseable program *)
      let reparsed = Lang.Parser.parse text in
      checkb "reproducer parses to the shrunk program" true
        (Lang.Ast.strip reparsed = Lang.Ast.strip c.Fuzz.shrunk))
    r.Fuzz.counterexamples

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "conformance"
    [
      ( "generator",
        [
          tc "deterministic given seed" `Quick test_gen_deterministic;
          tc "clean cases valid" `Quick test_gen_clean_cases_valid;
          tc "pretty/parse identity" `Quick test_gen_roundtrips;
        ] );
      ( "judge",
        [
          tc "clean on shipped pipeline" `Slow test_judge_clean_on_shipped_pipeline;
          tc "ablated regions found and shrunk" `Slow test_ablated_regions_found_and_shrunk;
          tc "no I/O floor on an unprotected branch" `Quick
            test_judge_plain_branch_has_no_io_floor;
          tc "a VM that runs short diverges" `Quick test_judge_reports_short_vm;
        ] );
      ( "shrinker",
        [
          tc "removes statements, tasks, globals" `Quick test_shrink_removes_statements_and_tasks;
          QCheck_alcotest.to_alcotest prop_shrinker_soundness;
        ] );
      ( "campaigns",
        [
          tc "deterministic across jobs" `Slow test_fuzz_report_deterministic_across_jobs;
          tc "clean campaign passes" `Slow test_fuzz_clean_campaign_passes;
          tc "ablated campaign fails with reproducers" `Slow test_fuzz_ablated_campaign_fails_with_reproducers;
        ] );
    ]
