(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the simulated platform.

   Usage: dune exec bench/main.exe --
            [--reps N] [--jobs N] [--json PATH] [--only fig7,table4,...]
   The paper runs each application 1000 times — pass --reps 1000 for
   the paper protocol. Seed sweeps fan out over --jobs domains
   (default: one per core, Expkit.Pool.default_jobs); the printed
   tables are bit-identical for every --jobs value because aggregates
   are folded in seed order. --json PATH additionally writes every
   aggregate plus wall-clock/speedup metadata as machine-readable
   JSON. *)

open Platform
open Apps

let jobs = ref (Expkit.Pool.default_jobs ())

(* One serialized stderr reporter for the whole harness: every stderr
   line goes through [Obs.Progress.log] (flushed, never interleaving
   with the heartbeat), and sweeps tick the optional --progress
   heartbeat. Pure observation — all printed aggregates are identical
   with any mode. *)
let reporter : Obs.Progress.t option ref = ref None

let tick_opt () = Option.map (fun p () -> Obs.Progress.tick p) !reporter
let add_total n = Option.iter (fun p -> Obs.Progress.add_total p n) !reporter

let baselines = [ Common.Alpaca; Common.Ink; Common.Easeio ]
let with_op = [ Common.Alpaca; Common.Ink; Common.Easeio; Common.Easeio_op ]

let spec_breakdown ~runs (spec : Common.spec) variants =
  add_total (runs * List.length variants);
  Expkit.Experiments.breakdown ~jobs:!jobs ?tick:(tick_opt ()) ~runs
    (fun ~variant ~failure ~seed -> spec.Common.run variant ~failure ~seed)
    ~label:Common.variant_name variants

(* {1 JSON collection (--json)}

   Every experiment records its aggregates as it computes them; the
   driver adds wall-clock and speedup metadata and writes one document
   at exit. Collection is append-only and cheap, so it is always on. *)

let breakdown_json (b : Expkit.Experiments.breakdown) =
  Trace.Json.Obj
    [
      ("runtime", Trace.Json.String b.Expkit.Experiments.b_label);
      ("app_ms", Trace.Json.Float b.Expkit.Experiments.b_app_ms);
      ("overhead_ms", Trace.Json.Float b.Expkit.Experiments.b_ovh_ms);
      ("wasted_ms", Trace.Json.Float b.Expkit.Experiments.b_wasted_ms);
      ("total_ms", Trace.Json.Float b.Expkit.Experiments.b_total_ms);
      ("energy_uj", Trace.Json.Float b.Expkit.Experiments.b_energy_uj);
      ("power_failures", Trace.Json.Float b.Expkit.Experiments.b_pf);
      ("io_execs", Trace.Json.Float b.Expkit.Experiments.b_io);
      ("redundant_io", Trace.Json.Float b.Expkit.Experiments.b_redundant);
      ("incorrect_runs", Trace.Json.Int b.Expkit.Experiments.b_incorrect);
      ("runs", Trace.Json.Int b.Expkit.Experiments.b_runs);
    ]

let json_workloads : (string * Trace.Json.t) list ref = ref []

let record_workload key rows =
  if not (List.mem_assoc key !json_workloads) then
    json_workloads := !json_workloads @ [ (key, Trace.Json.List (List.map breakdown_json rows)) ]

let json_experiments : (string * Trace.Json.t) list ref = ref []

let record_experiment key v =
  if not (List.mem_assoc key !json_experiments) then
    json_experiments := !json_experiments @ [ (key, v) ]

(* {1 Table 3} *)

let table3 ~reps:_ =
  print_endline (Expkit.Tablefmt.heading "Table 3: tasks and I/O functions per application");
  let w = [ 14; 8; 10 ] in
  print_endline (Expkit.Tablefmt.row w [ "App"; "Tasks"; "I/O fns" ]);
  print_endline (Expkit.Tablefmt.rule w);
  List.iter
    (fun s ->
      print_endline
        (Expkit.Tablefmt.row w
           [ s.Common.app_name; string_of_int s.Common.tasks; string_of_int s.Common.io_functions ]))
    Catalog.all

(* {1 Figure 7 + Table 4 + Figure 8: uni-task applications} *)

let uni_results = Hashtbl.create 4

let uni ~reps spec =
  match Hashtbl.find_opt uni_results (spec.Common.app_name, reps) with
  | Some r -> r
  | None ->
      let r = spec_breakdown ~runs:reps spec baselines in
      Hashtbl.replace uni_results (spec.Common.app_name, reps) r;
      record_workload spec.Common.app_name r;
      r

let fig7 ~reps =
  Expkit.Experiments.print_breakdown_table
    ~title:"Figure 7a: Single semantic - NVM to NVM DMA (uni-task)"
    [ uni ~reps Uni.dma ];
  Expkit.Experiments.print_breakdown_table
    ~title:"Figure 7b: Timely semantic - temperature sensing (uni-task)"
    [ uni ~reps Uni.temp ];
  Expkit.Experiments.print_breakdown_table
    ~title:"Figure 7c: Always semantic - LEA (uni-task)"
    [ uni ~reps Uni.lea ]

let table4 ~reps =
  Expkit.Experiments.print_table4
    [
      ("Single (DMA)", uni ~reps Uni.dma);
      ("Timely (Temp)", uni ~reps Uni.temp);
      ("Always (LEA)", uni ~reps Uni.lea);
    ]

let fig8 ~reps =
  Expkit.Experiments.print_energy_table
    ~title:"Figure 8: average energy per uni-task application"
    [
      ("Single (DMA)", uni ~reps Uni.dma);
      ("Timely (Temp)", uni ~reps Uni.temp);
      ("Always (LEA)", uni ~reps Uni.lea);
    ]

(* {1 Figure 10 + Figure 11 + Figure 12: multi-task applications} *)

let multi_results = Hashtbl.create 4

let multi ~reps spec =
  match Hashtbl.find_opt multi_results (spec.Common.app_name, reps) with
  | Some r -> r
  | None ->
      let r = spec_breakdown ~runs:reps spec with_op in
      Hashtbl.replace multi_results (spec.Common.app_name, reps) r;
      record_workload spec.Common.app_name r;
      r

let fig10 ~reps =
  Expkit.Experiments.print_breakdown_table
    ~title:"Figure 10: FIR filter (multi-task, incl. EaseIO/Op)"
    [ multi ~reps Fir.spec ];
  Expkit.Experiments.print_breakdown_table
    ~title:"Figure 10: weather classifier (multi-task)"
    [ multi ~reps Weather.spec ]

let fig11 ~reps =
  Expkit.Experiments.print_energy_table
    ~title:"Figure 11: average energy of the multi-task applications"
    [ ("FIR filter", multi ~reps Fir.spec); ("Weather App.", multi ~reps Weather.spec) ]

let fig12 ~reps = Expkit.Experiments.print_fig12 (multi ~reps Fir.spec)

(* {1 Table 5: single- vs double-buffered DNN} *)

let table5 ~reps =
  print_endline
    (Expkit.Tablefmt.heading
       "Table 5: weather classifier, double- vs single-buffered DNN");
  let w = [ 10; 12; 12; 12; 6 ] in
  print_endline
    (Expkit.Tablefmt.row w [ "Runtime"; "Buffering"; "Cont."; "Intermittent"; "Corr." ]);
  print_endline (Expkit.Tablefmt.rule w);
  let reps = max 20 (reps / 5) in
  let rows = ref [] in
  List.iter
    (fun buffering ->
      List.iter
        (fun v ->
          let cont =
            Weather.run_once ~buffering v ~failure:Failure.No_failures ~seed:1
          in
          add_total reps;
          let ones =
            Expkit.Pool.map_seeds ~jobs:!jobs ?tick:(tick_opt ()) ~runs:reps (fun ~seed ->
                Weather.run_once ~buffering v ~failure:Expkit.Experiments.paper_failures ~seed)
          in
          let bad = ref 0 and total = ref 0. in
          Array.iter
            (fun one ->
              total := !total +. float_of_int one.Expkit.Run.total_us;
              match one.Expkit.Run.correct with Some false -> incr bad | _ -> ())
            ones;
          let buf_name = match buffering with `Double -> "double" | `Single -> "single" in
          let cont_ms = float_of_int cont.Expkit.Run.total_us /. 1000. in
          let avg_ms = !total /. float_of_int reps /. 1000. in
          rows :=
            !rows
            @ [
                Trace.Json.Obj
                  [
                    ("runtime", Trace.Json.String (Common.variant_name v));
                    ("buffering", Trace.Json.String buf_name);
                    ("continuous_ms", Trace.Json.Float cont_ms);
                    ("intermittent_ms", Trace.Json.Float avg_ms);
                    ("incorrect_runs", Trace.Json.Int !bad);
                    ("runs", Trace.Json.Int reps);
                  ];
              ];
          print_endline
            (Expkit.Tablefmt.row w
               [
                 Common.variant_name v;
                 buf_name;
                 Expkit.Tablefmt.ms cont_ms;
                 Expkit.Tablefmt.ms avg_ms;
                 (if !bad = 0 then "ok" else Printf.sprintf "%dx" !bad);
               ]))
        baselines;
      print_endline (Expkit.Tablefmt.rule w))
    [ `Double; `Single ];
  record_experiment "table5" (Trace.Json.List !rows)

(* {1 Table 6: memory and code size} *)

let ir_footprint variant src =
  let m = Machine.create () in
  let t =
    Lang.Interp.build ~policy:(Common.policy_of variant) ~extra_io:[ Common.lea_fir_seg ] m
      (Lang.Parser.program src)
  in
  Lang.Footprint.measure t

let weather_footprint variant =
  let m = Machine.create () in
  let app, _, _ = Weather.build variant m in
  ignore app;
  let fram = Machine.layout m Memory.Fram and sram = Machine.layout m Memory.Sram in
  let rt_words =
    Layout.used_matching fram ~prefix:"rt."
    + Layout.used_matching fram ~prefix:"easeio."
    + Layout.used_matching fram ~prefix:"kernel."
  in
  let text =
    match variant with
    | Common.Alpaca -> 2_900
    | Common.Ink -> 3_000
    | Common.Easeio | Common.Easeio_op -> 3_600
  in
  {
    Lang.Footprint.text_bytes = text;
    ram_bytes = 2 * Layout.used sram;
    fram_app_bytes = 2 * (Layout.used fram - rt_words);
    fram_runtime_bytes = 2 * rt_words;
  }

let table6 ~reps:_ =
  print_endline (Expkit.Tablefmt.heading "Table 6: memory and code size requirements (bytes)");
  let w = [ 14; 10; 8; 8; 10; 12 ] in
  print_endline
    (Expkit.Tablefmt.row w [ "App"; "Runtime"; ".text"; "RAM"; "FRAM"; "rt-FRAM" ]);
  print_endline (Expkit.Tablefmt.rule w);
  let apps =
    [
      ("LEA", `Ir Uni.lea_source);
      ("DMA", `Ir Uni.dma_source);
      ("Temp.", `Ir Uni.temp_source);
      ("FIR filter", `Ir (Fir.source ~exclude_coefs:false));
      ("Weather App.", `Weather);
    ]
  in
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun v ->
          let fp =
            match kind with `Ir src -> ir_footprint v src | `Weather -> weather_footprint v
          in
          print_endline
            (Expkit.Tablefmt.row w
               [
                 name;
                 Common.variant_name v;
                 string_of_int fp.Lang.Footprint.text_bytes;
                 string_of_int fp.Lang.Footprint.ram_bytes;
                 string_of_int (Lang.Footprint.fram_total fp);
                 string_of_int fp.Lang.Footprint.fram_runtime_bytes;
               ]))
        baselines;
      print_endline (Expkit.Tablefmt.rule w))
    apps

(* {1 Figure 13: real-world RF harvesting across distance}

   The weather application on the energy-driven failure model: a small
   storage capacitor charged by a Powercast-style RF source. Close to
   the transmitter the harvest rate covers the application's draw and
   no failures occur; as distance grows, peripheral bursts (radio,
   camera) outrun the harvest, the capacitor empties, and the long
   recharge intervals dominate execution time — exactly the Fig. 13
   regime. Energy costs are scaled to the paper's board-level draw
   (our per-op model only covers the MCU core). *)

let fig13_distances = [ 52.; 55.; 58.; 61.; 64. ]
let fig13_episodes = 10

let fig13_run variant ~distance ~seed =
  let harvester = Harvester.rf ~efficiency:0.12 ~distance_inch:distance () in
  let capacitor = Capacitor.create ~capacity_nj:20_000. ~on_level_nj:15_000. in
  let cost = Cost.scale 2.0 Cost.msp430fr5994 in
  let m = Machine.create ~seed ~cost ~failure:Failure.Energy_driven ~harvester ~capacitor () in
  let app, hooks, _radio = Weather.build variant m in
  (* the device keeps classifying while harvesting: several executions
     back to back, sharing the capacitor state *)
  for _ = 1 to fig13_episodes do
    ignore (Kernel.Engine.run ~hooks m app)
  done;
  (Machine.now m, Machine.failures m)

let fig13 ~reps =
  print_endline
    (Expkit.Tablefmt.heading
       "Figure 13: execution time vs RF transmitter distance (difference to EaseIO/Op)");
  let reps = max 10 (reps / 50) in
  let w = [ 10; 12; 12; 12; 8 ] in
  print_endline
    (Expkit.Tablefmt.row w [ "Distance"; "Runtime"; "Total"; "vs EaseIO/Op"; "PF" ]);
  print_endline (Expkit.Tablefmt.rule w);
  let rows = ref [] in
  List.iter
    (fun distance ->
      let avg variant =
        add_total reps;
        let pairs =
          Expkit.Pool.map_seeds ~jobs:!jobs ?tick:(tick_opt ()) ~runs:reps (fun ~seed ->
              fig13_run variant ~distance ~seed)
        in
        let t = ref 0 and pf = ref 0 in
        Array.iter
          (fun (us, n) ->
            t := !t + us;
            pf := !pf + n)
          pairs;
        (float_of_int !t /. float_of_int reps /. 1000., float_of_int !pf /. float_of_int reps)
      in
      let base, _ = avg Common.Easeio_op in
      List.iter
        (fun v ->
          let total, pf = avg v in
          rows :=
            !rows
            @ [
                Trace.Json.Obj
                  [
                    ("distance_inch", Trace.Json.Float distance);
                    ("runtime", Trace.Json.String (Common.variant_name v));
                    ("total_ms", Trace.Json.Float total);
                    ("delta_vs_easeio_op_ms", Trace.Json.Float (total -. base));
                    ("power_failures", Trace.Json.Float pf);
                    ("runs", Trace.Json.Int reps);
                  ];
              ];
          print_endline
            (Expkit.Tablefmt.row w
               [
                 Printf.sprintf "%.0fin" distance;
                 Common.variant_name v;
                 Expkit.Tablefmt.ms total;
                 Printf.sprintf "%+.2fms" (total -. base);
                 Expkit.Tablefmt.f1 pf;
               ]))
        with_op;
      print_endline (Expkit.Tablefmt.rule w))
    fig13_distances;
  record_experiment "fig13" (Trace.Json.List !rows)

(* {1 Ablations (DESIGN.md §6): which EaseIO mechanism buys what}

   Three targeted experiments, each isolating one mechanism on the
   workload that depends on it:
   - regional privatization -> the Fig. 6 kernel (CPU reads around a
     Single NVM->NVM DMA);
   - re-execution semantics, correctness -> the FIR filter (WAR through
     the shared signal buffer);
   - re-execution semantics, efficiency -> the uni-task DMA app (wasted
     work returns to baseline levels). *)

let fig6_kernel =
  {|
program fig6pad;
nv int a[64];
nv int b[64];
nv int out;

task t {
  int z;
  int i;
  int acc;
  z = b[0];
  dma_copy(a[0], b[0], 64);
  acc = 0;
  for i = 0 to 1399 { acc = acc + ((z + i) % 7); }
  a[0] = z;
  out = acc;
  stop;
}
|}

let fig6_kernel_run ~ablate_regions ~seed =
  let setup t =
    let m = Lang.Interp.machine t in
    Common.flash m (Lang.Interp.global_loc t "a") (Array.init 64 (fun i -> 10 + i));
    Common.flash m (Lang.Interp.global_loc t "b") (Array.init 64 (fun i -> 50 + i))
  in
  let check t =
    (* golden: b = old a; a unchanged except a[0] = old b[0] *)
    let ok = ref (Lang.Interp.read_global t "a" 0 = 50) in
    for i = 1 to 63 do
      if Lang.Interp.read_global t "a" i <> 10 + i then ok := false
    done;
    for i = 0 to 63 do
      if Lang.Interp.read_global t "b" i <> 10 + i then ok := false
    done;
    !ok
  in
  Common.run_ir ~src:fig6_kernel ~setup ~check ~ablate_regions Common.Easeio
    ~failure:Expkit.Experiments.paper_failures ~seed

let ablations ~reps =
  let reps = max 100 (reps / 4) in
  let w = [ 34; 10; 10; 12 ] in
  let line label total wasted bad =
    print_endline
      (Expkit.Tablefmt.row w
         [
           label;
           Expkit.Tablefmt.ms total;
           Expkit.Tablefmt.ms wasted;
           Printf.sprintf "%d/%d" bad reps;
         ])
  in
  let aggregate runner =
    add_total reps;
    let ones = Expkit.Pool.map_seeds ~jobs:!jobs ?tick:(tick_opt ()) ~runs:reps runner in
    let total = ref 0. and wasted = ref 0. and bad = ref 0 in
    Array.iter
      (fun one ->
        total := !total +. float_of_int one.Expkit.Run.total_us;
        wasted := !wasted +. float_of_int one.Expkit.Run.wasted_us;
        match one.Expkit.Run.correct with Some false -> incr bad | _ -> ())
      ones;
    let n = float_of_int reps in
    (!total /. n /. 1000., !wasted /. n /. 1000., !bad)
  in
  print_endline
    (Expkit.Tablefmt.heading "Ablations: EaseIO with one mechanism disabled at a time");
  print_endline (Expkit.Tablefmt.row w [ "Configuration"; "Total"; "Wasted"; "Incorrect" ]);
  print_endline (Expkit.Tablefmt.rule w);
  let pf = Expkit.Experiments.paper_failures in
  let cases =
    [
      ( "fig6 kernel: full EaseIO",
        fun ~seed -> fig6_kernel_run ~ablate_regions:false ~seed );
      ( "fig6 kernel: no regional priv.",
        fun ~seed -> fig6_kernel_run ~ablate_regions:true ~seed );
      ( "FIR: full EaseIO",
        fun ~seed -> Fir.run_ablated ~ablate_regions:false ~ablate_semantics:false ~failure:pf ~seed () );
      ( "FIR: no re-exec semantics",
        fun ~seed -> Fir.run_ablated ~ablate_regions:false ~ablate_semantics:true ~failure:pf ~seed () );
      ( "DMA app: full EaseIO",
        fun ~seed -> Uni.dma_run_ablated ~ablate_semantics:false ~failure:pf ~seed );
      ( "DMA app: no re-exec semantics",
        fun ~seed -> Uni.dma_run_ablated ~ablate_semantics:true ~failure:pf ~seed );
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (label, runner) ->
      let total, wasted, bad = aggregate runner in
      rows :=
        !rows
        @ [
            Trace.Json.Obj
              [
                ("configuration", Trace.Json.String label);
                ("total_ms", Trace.Json.Float total);
                ("wasted_ms", Trace.Json.Float wasted);
                ("incorrect_runs", Trace.Json.Int bad);
                ("runs", Trace.Json.Int reps);
              ];
          ];
      line label total wasted bad)
    cases;
  record_experiment "ablations" (Trace.Json.List !rows)

(* {1 Prefix-resume: checkpointed vs from-power-on boundary sweep}

   Boundary sweeps resume each nth:k case from a pacer run's engine
   checkpoint instead of replaying the prefix from power on, and fan
   the resumed cases out over the domain pool. The same sweep runs
   resumed at jobs=1, resumed at the host's default jobs, and from
   power on at jobs=1; the three reports must be byte-identical (the
   harness exits nonzero otherwise — the identity claim, enforced on
   every bench run). The table prints only what does not depend on the
   host; every wall clock lands in the JSON: *_wall_s rows are
   informational, *_runs_per_s rows are gated against a throughput
   collapse. The parallel figure is only meaningful beside
   [recommended_domains], which is recorded with it. *)

let sweep_resume ~reps =
  (* the sweep cost is fixed (one case per boundary), so scale the
     stride, not the repetitions: exhaustive at gate/baseline reps,
     strided for the quick smoke *)
  let stride = if reps >= 100 then 1 else 8 in
  let sweep = Faultkit.Campaign.Boundaries { stride } in
  let par_jobs = Expkit.Pool.default_jobs () in
  let timed ~jobs resume =
    let t0 = Unix.gettimeofday () in
    let r = Faultkit.Campaign.run ~jobs ~resume ~sweep ~variants:[ Common.Easeio ] Weather.spec in
    (Faultkit.Campaign.to_json r, r, Unix.gettimeofday () -. t0)
  in
  let resumed_json, resumed, resumed_s = timed ~jobs:1 true in
  let parallel_json, _, parallel_s = timed ~jobs:par_jobs true in
  let replay_json, _, replay_s = timed ~jobs:1 false in
  if parallel_json <> resumed_json || replay_json <> resumed_json then begin
    Obs.Progress.log
      "sweep-resume: resumed jobs=1, resumed jobs=%d and from-power-on reports are not identical"
      par_jobs;
    exit 1
  end;
  let _, run = Faultkit.Campaign.coverage_totals resumed in
  let per_s wall = if wall > 0. then float_of_int run /. wall else 0. in
  print_endline
    (Expkit.Tablefmt.heading "Prefix-resume: checkpointed vs from-power-on boundary sweep");
  let w = [ 26; 8; 24 ] in
  print_endline (Expkit.Tablefmt.row w [ "Sweep"; "stride"; "resumed vs replay" ]);
  print_endline (Expkit.Tablefmt.rule w);
  print_endline
    (Expkit.Tablefmt.row w
       [
         Printf.sprintf "Weather/EaseIO, %d cases" run; string_of_int stride; "identical reports";
       ]);
  record_experiment "sweep_resume"
    (Trace.Json.Obj
       [
         ("app", Trace.Json.String Weather.spec.Common.app_name);
         ("runtime", Trace.Json.String "EaseIO");
         ("stride", Trace.Json.Int stride);
         ("cases", Trace.Json.Int run);
         ("reports_identical", Trace.Json.Bool true);
         ("resumed_wall_s", Trace.Json.Float resumed_s);
         ("replay_wall_s", Trace.Json.Float replay_s);
         ("resumed_runs_per_s", Trace.Json.Float (per_s resumed_s));
         ("replay_runs_per_s", Trace.Json.Float (per_s replay_s));
         ("resumed_jobs", Trace.Json.Int par_jobs);
         ("recommended_domains", Trace.Json.Int (Domain.recommended_domain_count ()));
         ("resumed_parallel_wall_s", Trace.Json.Float parallel_s);
         ("resumed_parallel_runs_per_s", Trace.Json.Float (per_s parallel_s));
       ])

(* {1 Campaign service: cold compute vs warm cache replay}

   The same Weather sweep pushed through an in-process `easeio serve`
   twice: the cold request computes, the warm one replays the memoized
   document. Both must be byte-identical to the one-shot
   [Campaign.run] path (the harness exits nonzero otherwise — the
   serve determinism claim, enforced on every bench run), and the warm
   replay must be at least 5x faster than the cold compute — that is
   the whole point of the result cache, so a miss here is a regression
   even though wall clocks are otherwise informational. *)

let serve_cache ~reps =
  let stride = if reps >= 100 then 1 else 8 in
  let sweep = Faultkit.Campaign.Boundaries { stride } in
  let server =
    Serve.Server.start { (Serve.Server.default_config (Serve.Server.Tcp 0)) with jobs = 2 }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  let addr = Serve.Server.Tcp (Serve.Server.port server) in
  let payload =
    Serve.Protocol.faults_request ~id:1 ~runtime:Common.Easeio ~sweep ~seed:1
      ~app:Weather.spec.Common.app_name ()
  in
  let fetch () =
    let c = Serve.Client.connect_retry addr in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    match Serve.Client.rpc c ~id:1 payload with
    | Ok o -> (o, Unix.gettimeofday () -. t0)
    | Error _ ->
        Obs.Progress.log "serve-cache: request failed";
        exit 1
  in
  let cold, cold_s = fetch () in
  let warm, warm_s = fetch () in
  let report =
    Faultkit.Campaign.run ~jobs:1 ~resume:true ~sweep ~variants:[ Common.Easeio ] Weather.spec
  in
  let oneshot = Trace.Json.to_string (Faultkit.Campaign.to_json report) in
  if cold.Serve.Client.doc <> oneshot || warm.Serve.Client.doc <> oneshot then begin
    Obs.Progress.log "serve-cache: server document differs from the one-shot campaign";
    exit 1
  end;
  let speedup = cold_s /. Float.max warm_s 1e-6 in
  if (not warm.Serve.Client.result_cached) || speedup < 5. then begin
    Obs.Progress.log "serve-cache: warm replay not cached or under the 5x floor (%.1fx)" speedup;
    exit 1
  end;
  let stats = Serve.Server.cache_stats server in
  let cases =
    List.fold_left
      (fun acc (c : Faultkit.Campaign.cell) -> acc + c.Faultkit.Campaign.cases)
      0 report.Faultkit.Campaign.cells
  in
  let per_s wall = if wall > 0. then float_of_int cases /. wall else 0. in
  print_endline (Expkit.Tablefmt.heading "Campaign service: cold compute vs warm cache replay");
  let w = [ 26; 12; 16 ] in
  print_endline (Expkit.Tablefmt.row w [ "Sweep"; "warm reply"; "cold and warm" ]);
  print_endline (Expkit.Tablefmt.rule w);
  print_endline
    (Expkit.Tablefmt.row w
       [ Printf.sprintf "Weather/EaseIO, %d cases" cases; "cached"; "= one-shot" ]);
  record_experiment "serve_cache"
    (Trace.Json.Obj
       [
         ("app", Trace.Json.String Weather.spec.Common.app_name);
         ("runtime", Trace.Json.String "EaseIO");
         ("stride", Trace.Json.Int stride);
         ("cases", Trace.Json.Int cases);
         ("matches_oneshot", Trace.Json.Bool true);
         ("warm_cached", Trace.Json.Bool warm.Serve.Client.result_cached);
         ("cache_hits", Trace.Json.Int stats.Serve.Cache.hits);
         ("cache_misses", Trace.Json.Int stats.Serve.Cache.misses);
         ("cache_computes", Trace.Json.Int stats.Serve.Cache.computes);
         ("cold_wall_s", Trace.Json.Float cold_s);
         ("warm_wall_s", Trace.Json.Float warm_s);
         ("warm_speedup_wall_s", Trace.Json.Float speedup);
         ("cold_runs_per_s", Trace.Json.Float (per_s cold_s));
       ])

(* {1 --trace-dir: one Chrome trace per runtime variant}

   Each trace is validated before it is written
   ([Expkit.Run.check_trace]): the per-task buckets folded out of the
   event stream must equal the run's own [Kernel.Metrics] totals, and
   the trace's per-kind I/O counts the machine's. Wired into
   @bench-smoke, so bitrot in the tracing subsystem fails the build. *)

let variant_slug v =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
    (String.lowercase_ascii (Common.variant_name v))

let trace_exports dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun v ->
      let recorder = Trace.Recorder.create () in
      let one =
        Weather.run_once
          ~sink:(Trace.Recorder.sink recorder)
          v ~failure:Expkit.Experiments.paper_failures ~seed:1
      in
      let events = Trace.Recorder.events recorder in
      (match Expkit.Run.check_trace one events with
      | Ok _ -> ()
      | Error msg ->
          Obs.Progress.log "trace validation failed (%s): %s" (Common.variant_name v) msg;
          exit 1);
      let golden = Weather.run_once v ~failure:Failure.No_failures ~seed:0 in
      let path = Filename.concat dir (Printf.sprintf "weather-%s.json" (variant_slug v)) in
      Trace.Json.to_file path (Trace.Export.chrome events);
      Printf.printf "trace: %s (%d events, %d redundant io)\n" path (List.length events)
        (Expkit.Run.redundant_vs_golden ~golden one))
    with_op

(* {1 Driver} *)

let all_experiments =
  [
    ("table3", table3);
    ("fig7", fig7);
    ("table4", table4);
    ("fig8", fig8);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("table5", table5);
    ("table6", table6);
    ("fig13", fig13);
    ("ablations", ablations);
    ("sweep_resume", sweep_resume);
    ("serve_cache", serve_cache);
  ]

(* {1 Interpreter throughput}

   Single-run wall time of the tree-walking interpreter vs the bytecode
   VM over the task-language evaluation apps — the simulator hot path.
   The VM row is what every sweep above actually paid; the tree row is
   the conformance oracle's cost. Printed with --profile-interp, and
   always recorded in the --json meta. *)

let interp_workloads = [ Uni.dma; Uni.temp; Uni.lea; Fir.spec ]

let time_interp interp spec runs =
  let run seed =
    ignore (spec.Common.run ~interp Common.Easeio ~failure:Expkit.Experiments.paper_failures ~seed)
  in
  (* warm-up run: populates the per-domain arena cache (vm) and faults
     in allocations either way *)
  run 1;
  let t0 = Unix.gettimeofday () in
  for seed = 1 to runs do
    run seed
  done;
  Unix.gettimeofday () -. t0

let interp_rows = ref None

let interp_profile ~reps =
  match !interp_rows with
  | Some rows -> rows
  | None ->
      let runs = max 20 (min 200 reps) in
      let rows =
        List.map
          (fun spec ->
            let tree_s = time_interp Common.Tree_walk spec runs in
            let vm_s = time_interp Common.Bytecode spec runs in
            (spec.Common.app_name, runs, tree_s, vm_s))
          interp_workloads
      in
      interp_rows := Some rows;
      rows

let print_interp_profile ~reps =
  let rows = interp_profile ~reps in
  print_endline
    (Expkit.Tablefmt.heading "Interpreter throughput: tree-walker vs bytecode VM (per run)");
  let w = [ 12; 10; 10; 10 ] in
  print_endline (Expkit.Tablefmt.row w [ "Workload"; "tree us"; "vm us"; "speedup" ]);
  print_endline (Expkit.Tablefmt.rule w);
  List.iter
    (fun (name, runs, tree_s, vm_s) ->
      let per u = u /. float_of_int runs *. 1e6 in
      print_endline
        (Expkit.Tablefmt.row w
           [
             name;
             Printf.sprintf "%.1f" (per tree_s);
             Printf.sprintf "%.1f" (per vm_s);
             Printf.sprintf "%.1fx" (if vm_s > 0. then tree_s /. vm_s else 1.);
           ]))
    rows

let interp_meta ~reps =
  let rows = interp_profile ~reps in
  let per_s t runs = if t > 0. then float_of_int runs /. t else 0. in
  ( Trace.Json.Obj
      (List.map (fun (n, runs, tree_s, _) -> (n, Trace.Json.Float (per_s tree_s runs))) rows),
    Trace.Json.Obj
      (List.map (fun (n, runs, _, vm_s) -> (n, Trace.Json.Float (per_s vm_s runs))) rows) )

(* {1 Provenance}

   Recorded in the --json meta so a committed baseline says where it
   came from. Every field is best-effort and host-dependent, so the
   report gate treats all of meta.* as informational. *)

let git_sha () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      if status = Unix.WEXITED 0 && line <> "" then line else "unknown"
  | exception Unix.Unix_error _ -> "unknown"

(* dune places the executable under _build/<profile>/bench/ *)
let dune_profile () =
  let parts = String.split_on_char '/' Sys.executable_name in
  let rec go = function
    | "_build" :: profile :: _ -> profile
    | _ :: tl -> go tl
    | [] -> "unknown"
  in
  go parts

let () =
  let reps = ref 1000 in
  let only = ref [] in
  let json_path = ref None in
  let trace_dir = ref None in
  let profile = ref false in
  let usage =
    "usage: main.exe [--reps N] [--jobs N] [--json PATH] [--trace-dir DIR] [--only a,b] \
     [--profile-interp] [--progress off|stderr|json]"
  in
  let int_arg flag n =
    match int_of_string_opt n with
    | Some v -> v
    | None ->
        Obs.Progress.log "%s expects an integer, got %S\n%s" flag n usage;
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--reps" :: n :: rest ->
        reps := int_arg "--reps" n;
        parse rest
    | "--jobs" :: n :: rest ->
        let j = int_arg "--jobs" n in
        if j < 1 then (
          Obs.Progress.log "--jobs must be >= 1";
          exit 2);
        jobs := min j Expkit.Pool.max_jobs;
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--trace-dir" :: dir :: rest ->
        trace_dir := Some dir;
        parse rest
    | "--only" :: names :: rest ->
        only := String.split_on_char ',' names;
        parse rest
    | "--profile-interp" :: rest ->
        profile := true;
        parse rest
    | "--progress" :: mode :: rest ->
        (match Obs.Progress.mode_of_string mode with
        | Ok Obs.Progress.Off -> reporter := None
        | Ok m -> reporter := Some (Obs.Progress.create m ~label:"bench")
        | Error e ->
            Obs.Progress.log "%s\n%s" e usage;
            exit 2);
        parse rest
    | arg :: _ ->
        Obs.Progress.log "unknown argument %s\n%s" arg usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf
    "EaseIO evaluation harness — %d repetitions per data point\n" !reps;
  let timings = ref [] in
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      if !only = [] || List.mem name !only then begin
        let t0 = Unix.gettimeofday () in
        f ~reps:!reps;
        timings := !timings @ [ (name, Unix.gettimeofday () -. t0) ]
      end)
    all_experiments;
  if !profile then print_interp_profile ~reps:!reps;
  Option.iter trace_exports !trace_dir;
  Option.iter Obs.Progress.finish !reporter;
  let total_wall_s = Unix.gettimeofday () -. t_start in
  match !json_path with
  | None -> ()
  | Some path ->
      let doc =
        Trace.Json.Obj
          [
            ( "meta",
              Trace.Json.Obj
                [
                  ("harness", Trace.Json.String "easeio-bench");
                  ("schema_version", Trace.Json.Int 2);
                  ("git_sha", Trace.Json.String (git_sha ()));
                  ("dune_profile", Trace.Json.String (dune_profile ()));
                  ("ocaml_version", Trace.Json.String Sys.ocaml_version);
                  ("reps", Trace.Json.Int !reps);
                  ("jobs", Trace.Json.Int !jobs);
                  ( "recommended_domains",
                    Trace.Json.Int (Domain.recommended_domain_count ()) );
                  ("total_wall_s", Trace.Json.Float total_wall_s);
                  ("interp_runs_per_s", fst (interp_meta ~reps:!reps));
                  ("vm_runs_per_s", snd (interp_meta ~reps:!reps));
                ] );
            ( "experiment_wall_s",
              Trace.Json.Obj (List.map (fun (n, s) -> (n, Trace.Json.Float s)) !timings) );
            ("workloads", Trace.Json.Obj !json_workloads);
            ("experiments", Trace.Json.Obj !json_experiments);
          ]
      in
      Trace.Json.to_file path doc;
      Obs.Progress.log "bench results written to %s" path
