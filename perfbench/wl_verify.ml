(* verify: what a user runs to certify an app — FIR filter and Weather
   App. — before deploying it. An op is one verification job:

   - cost: the paper protocol for both apps under EaseIO and EaseIO/Op
     (simulated time, energy and redundant I/O);
   - sweep: an exhaustive boundary sweep (stride 1) of each app under
     all four runtimes, resumed from prefix checkpoints;
   - explore: the reboot-space walk at depth 2 on FIR, 1 on Weather;
   - fuzz: a 40-case conformance campaign seeded from the workload seed.

   Sweeps and fuzz are given [jobs = nproc]; resumed sweeps ignore it
   today, so a parallel checkpoint walker can later show its gain
   without a change here. Latency samples are the host time between
   consecutive boundary-case verdicts of the sweeps, taken from the
   campaign's progress hook; explored states and fuzz cases are a
   different size class and are timed per job instead. *)

open Env
module S = Perfbench.Spans
module St = Perfbench.Stats
module C = Apps.Common
module Camp = Faultkit.Campaign

let paper = Expkit.Experiments.paper_failures
let apps = [ Apps.Fir.spec; Apps.Weather.spec ]
let cost_seeds = 1000
let fuzz_cases = 40

(* golden runs per (app, runtime): VM images and app pattern images *)
let setup () =
  List.iter
    (fun (spec : C.spec) ->
      List.iter
        (fun v -> ignore (spec.run v ~failure:Platform.Failure.No_failures ~seed:0))
        C.all_variants)
    apps

type job = { kind : string; what : string; wall : float; ok : bool; why : string }

(* A progress sink, made at the start of a sweep, that turns every case
   verdict into a latency sample in [lat] and runs the host-speed loop
   every 500 cases, outside the samples. *)
let ticker lat =
  let last = ref (now ()) and n = ref 0 in
  Obs.Progress.create ~interval_s:0.
    (Obs.Progress.Sink
       (fun _ ->
         St.push lat (now () -. !last);
         incr n;
         if !n mod 500 = 0 then calibrate ();
         last := now ()))
    ~label:"verify"

type pass = {
  jobs : job list;
  sim : float * float * float;  (** cost job: mean ms, µJ, redundant I/O *)
  sweeps : Camp.report list;
  walks : Explore.report list;
  fuzz : Conformance.Fuzz.report;
  emit_s : float list;
}

let cost spans ~seed =
  let rng = Random.State.make [| seed; 0x636f |] in
  let runs = ref 0 and us = ref 0 and nj = ref 0. and red = ref 0 and bad = ref 0 in
  List.iter
    (fun (spec : C.spec) ->
      let seeds = Array.init cost_seeds (fun _ -> Random.State.bits rng) in
      List.iter
        (fun v ->
          let golden = spec.run v ~failure:Platform.Failure.No_failures ~seed:0 in
          Array.iter
            (fun seed ->
              match S.with_ spans "apps.run" (fun _ -> spec.run v ~failure:paper ~seed) with
              | one ->
                  incr runs;
                  us := !us + one.Expkit.Run.total_us;
                  nj := !nj +. one.Expkit.Run.energy_nj;
                  red := !red + Expkit.Run.redundant_vs_golden ~golden one;
                  if one.Expkit.Run.correct <> Some true || one.Expkit.Run.gave_up then incr bad
              | exception _ -> incr bad)
            seeds)
        [ C.Easeio; C.Easeio_op ])
    apps;
  let n = float_of_int !runs in
  ((float_of_int !us /. n /. 1e3, !nj /. n /. 1e3, float_of_int !red /. n), !bad)

(* Each cell of a sweep must be exhaustive; the expected-safe ones
   (every Weather cell, FIR under EaseIO and EaseIO/Op) must pass and
   FIR under Alpaca and InK must be caught. *)
let sweep_verdict (r : Camp.report) =
  let total, run = Camp.coverage_totals r in
  let cell_ok (c : Camp.cell) =
    let safe =
      r.Camp.app <> Apps.Fir.spec.C.app_name || c.Camp.variant = C.Easeio || c.Camp.variant = C.Easeio_op
    in
    if safe then Camp.cell_passed c else c.Camp.failed <> []
  in
  if run <> total || Camp.strided r then (false, Printf.sprintf "coverage %d/%d" run total)
  else if not (List.for_all cell_ok r.Camp.cells) then (false, "a cell broke its expected verdict")
  else match Camp.reconcile r with Ok () -> (true, "") | Error e -> (false, "reconcile: " ^ e)

let pass spans ~(ctx : ctx) lat =
  let job kind what f verdict =
    calibrate ();
    let r, wall = time (fun () -> f ()) in
    let ok, why = verdict r in
    (r, { kind; what; wall; ok; why })
  in
  let emit = ref [] in
  let emit_json name j =
    let (_ : string), dt = time (fun () -> S.with_ spans name (fun _ -> Trace.Json.to_string (j ()))) in
    emit := dt :: !emit
  in
  let (sim, _), cost_job =
    job "cost" "FIR+Weather" (fun () -> cost spans ~seed:ctx.seed) (fun (_, bad) ->
        (bad = 0, Printf.sprintf "%d wrong runs" bad))
  in
  let sweeps =
    List.map
      (fun (spec : C.spec) ->
        job "sweep" spec.C.app_name
          (fun () ->
            let progress = ticker lat in
            S.with_ spans "faultkit.Campaign.run" (fun _ ->
                Camp.run ~jobs:ctx.nproc ~progress ~resume:true ~seed:1
                  ~sweep:(Camp.Boundaries { stride = 1 }) ~variants:C.all_variants spec))
          sweep_verdict)
      apps
  in
  let walks =
    List.map
      (fun ((spec : C.spec), depth) ->
        job "explore" spec.C.app_name
          (fun () ->
            S.with_ spans "explore.explore" (fun _ -> Explore.explore ~depth spec C.Easeio ~seed:1))
          (fun r ->
            if r.Explore.truncated then (false, "truncated")
            else if not (Explore.passed r) then (false, "findings")
            else (true, "")))
      [ (Apps.Fir.spec, 2); (Apps.Weather.spec, 1) ]
  in
  let fuzz, fuzz_job =
    job "fuzz" (Printf.sprintf "%d cases" fuzz_cases)
      (fun () ->
        S.with_ spans "conformance.Fuzz.run" (fun _ ->
            Conformance.Fuzz.run
              {
                Conformance.Fuzz.default_options with
                count = fuzz_cases;
                seed = Random.State.bits (Random.State.make [| ctx.seed; 0x667a |]);
                jobs = ctx.nproc;
              }))
      (fun r -> (Conformance.Fuzz.passed r, "violations"))
  in
  (* document emission, outside the job timings *)
  List.iter (fun (r, _) -> emit_json "json.Campaign.to_json" (fun () -> Camp.to_json r)) sweeps;
  List.iter (fun (r, _) -> emit_json "json.Explore.to_json" (fun () -> Explore.to_json r)) walks;
  emit_json "json.Fuzz.to_json" (fun () -> Conformance.Fuzz.to_json fuzz);
  {
    jobs = (cost_job :: List.map snd sweeps) @ List.map snd walks @ [ fuzz_job ];
    sim;
    sweeps = List.map fst sweeps;
    walks = List.map fst walks;
    fuzz;
    emit_s = !emit;
  }

(* Whole passes until [seconds] have passed (at least one). *)
let measure spans ~ctx ~seconds =
  let lat = St.samples () in
  let t0 = now () in
  let rec go acc =
    let p = pass spans ~ctx lat in
    let acc = p :: acc in
    if now () -. t0 < seconds then go acc else List.rev acc
  in
  let passes = go [] in
  (passes, lat, now () -. t0)

let job_s passes kind =
  St.median
    (List.map
       (fun p -> List.fold_left (fun a j -> if j.kind = kind then a +. j.wall else a) 0. p.jobs)
       passes)

let run (ctx : ctx) =
  let off = S.create ~enabled:false in
  let job_notes passes =
    List.concat_map
      (fun p ->
        List.map
          (fun j ->
            Printf.sprintf "job %-7s %-12s %8.3f s %s" j.kind j.what j.wall
              (if j.ok then "ok" else "FAILED: " ^ j.why))
          p.jobs)
      passes
  in
  let counts passes =
    let jobs = List.concat_map (fun p -> p.jobs) passes in
    (List.length jobs, List.length (List.filter (fun j -> not j.ok) jobs))
  in
  let tool_times passes =
    List.map
      (fun (name, kind) -> (name, job_s passes kind))
      [ ("faultkit.sweep_s", "sweep"); ("explore.walk_s", "explore"); ("conformance.fuzz_s", "fuzz") ]
  in
  if not ctx.trace then begin
    let (passes, lat, wall, rss), setups =
      repeated_setup ~k:21 setup ~after:(fun () ->
          let passes, lat, wall = measure off ~ctx ~seconds:ctx.seconds in
          (passes, lat, wall, peak_rss_mb ()))
    in
    let attempted, failed = counts passes in
    let p50, p99, lat_note = latency_ms ~what:"sweep case verdict" lat in
    let k = at_ref () in
    let sim_ms, sim_uj, sim_red = (List.hd passes).sim in
    {
      attempted;
      failed;
      e2e =
        [
          ("setup_s", St.median setups *. k);
          ("ops_per_s", float_of_int attempted /. wall /. k);
          ("latency_p50_ms", p50 *. k);
          ("latency_p99_ms", p99 *. k);
          ("peak_rss_mb", rss);
          ("sim_total_ms", sim_ms);
          ("sim_energy_uj", sim_uj);
          ("sim_redundant_io", sim_red);
        ];
      layer = [];
      notes =
        [ Printf.sprintf "setup: %d set-ups, median %.4f s" (List.length setups) (St.median setups) ]
        @ job_notes passes
        @ List.map
            (fun (n, v) -> Printf.sprintf "%s: median %.3f s over %d passes" n v (List.length passes))
            (tool_times passes)
        @ [
            lat_note;
            Printf.sprintf "sim: cost job, %d runs per (app, runtime)" cost_seeds;
            calib_note ();
          ];
      spans = [];
      window = (0., 0.);
    }
  end
  else begin
    setup ();
    (* untraced, traced, untraced: see Wl_montecarlo *)
    let _, _, before = measure off ~ctx ~seconds:0. in
    let spans = S.create ~enabled:true in
    let g0 = gc_counts () in
    let w0 = now () in
    let passes, _, traced = measure spans ~ctx ~seconds:0. in
    let w1 = now () in
    let g1 = gc_counts () in
    let _, _, after = measure off ~ctx ~seconds:0. in
    let plain = (before +. after) /. 2. in
    let p = List.hd passes in
    let attempted, failed = counts passes in
    (* per-cell sweep time through the sharding entry point *)
    let cell_s =
      List.concat_map
        (fun (spec : C.spec) ->
          List.map
            (fun v ->
              snd
                (time (fun () ->
                     S.with_ spans "faultkit.Campaign.run_cell" (fun _ ->
                         Camp.run_cell ~jobs:ctx.nproc ~resume:true
                           ~sweep:(Camp.Boundaries { stride = 1 }) ~seed:1 spec v))))
            C.all_variants)
        apps
    in
    let cells_of = List.concat_map (fun (r : Camp.report) -> r.Camp.cells) p.sweeps in
    let cases = List.fold_left (fun a (c : Camp.cell) -> a + c.Camp.cases) 0 cells_of in
    let total, run =
      List.fold_left
        (fun (t, r) rep ->
          let t', r' = Camp.coverage_totals rep in
          (t + t', r + r'))
        (0, 0) p.sweeps
    in
    let fir_boundaries =
      (List.find (fun (c : Camp.cell) -> c.Camp.variant = C.Easeio) (List.hd p.sweeps).Camp.cells)
        .Camp.boundaries
    in
    let meter_us = Probes.obs_meter spans Apps.Fir.spec C.Easeio ~boundaries:fir_boundaries in
    let cp_us, rs_us =
      let pairs = List.map (fun spec -> Probes.checkpoint_restore spans spec C.Easeio) apps in
      (St.mean (List.map fst pairs), St.mean (List.map snd pairs))
    in
    let walk_sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 p.walks) in
    let states = walk_sum (fun r -> r.Explore.states) in
    let pruned = walk_sum (fun r -> r.Explore.pruned) in
    let snap_sum k = walk_sum (fun r -> Obs.Snapshot.counter r.Explore.snap k) in
    let gen, judge, shrink = Probes.conformance spans ~seed:ctx.seed in
    let sweep_s = job_s passes "sweep" in
    {
      attempted;
      failed;
      e2e = [];
      layer =
        tool_times passes
        @ [
            ("faultkit.cell_s", St.mean cell_s);
            ("faultkit.case_us", sweep_s /. float_of_int cases *. 1e6);
            ("faultkit.coverage", float_of_int run /. float_of_int total);
            ("obs.meter_us_per_case", meter_us);
            ("kernel.checkpoint_us", cp_us);
            ("kernel.restore_us", rs_us);
            ("platform.snapshot_pages_copied", snap_sum "snapshot/pages_copied");
            ("explore.states", states);
            ("explore.pruned", pruned);
            ("explore.prune_ratio", pruned /. (states +. pruned));
            ("explore.prefix_us_saved", snap_sum "resume/prefix_us_saved");
            ("conformance.gen_ms", gen);
            ("conformance.judge_ms", judge);
            ("conformance.shrink_ms", shrink);
            ("conformance.probes", float_of_int p.fuzz.Conformance.Fuzz.boundaries_run);
            ("json.emit_ms", St.mean p.emit_s *. 1e3);
            ("trace.overhead_s", traced -. plain);
          ]
        @ Probes.gc_per_op ~ops:attempted g0 g1;
      notes = job_notes passes @ [ Printf.sprintf "traced pass %.3f s; untraced %.3f s" traced plain ];
      spans = S.spans spans;
      window = (w0, w1);
    }
  end
