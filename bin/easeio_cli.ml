(* easeio: command-line front door to the library.

   - [easeio check prog.eio --json] — run the analysis and lint passes
     and report every diagnostic (nonzero exit on errors);
   - [easeio compile prog.eio --dump-after PASS --out f.eio] — run the
     full pass pipeline and write the transformed source (Fig. 5 /
     Fig. 6 style);
   - [easeio run prog.eio --runtime easeio --failures --seed 3] —
     execute a task-language program on the simulated MCU;
   - [easeio apps] — list the built-in evaluation applications;
   - [easeio app weather --runtime alpaca --runs 100] — run a built-in
     application and print its measurements;
   - [easeio trace weather --runtime easeio --seed 1 --out t.json] —
     record one traced run and export it (Chrome trace / text /
     profile). *)

open Cmdliner
open Platform

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An out-of-range numeric option is a usage error: [easeio CMD: --OPT
   must be >= MIN] on stderr, exit 1. *)
let at_least ~cmd opt min v =
  if v < min then begin
    Printf.eprintf "easeio %s: --%s must be >= %d\n" cmd opt min;
    exit 1
  end

let runtime_conv =
  let parse = function
    | "plain" -> Ok Lang.Interp.Plain
    | "alpaca" -> Ok Lang.Interp.Alpaca
    | "ink" -> Ok Lang.Interp.Ink
    | "easeio" -> Ok Lang.Interp.Easeio
    | s -> Error (`Msg (Printf.sprintf "unknown runtime %s (plain|alpaca|ink|easeio)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Lang.Interp.policy_name p))

let interp_conv =
  let parse = function
    | "tree" -> Ok Apps.Common.Tree_walk
    | "vm" -> Ok Apps.Common.Bytecode
    | s -> Error (`Msg (Printf.sprintf "unknown interpreter %s (tree|vm)" s))
  in
  Arg.conv (parse, fun ppf i -> Format.pp_print_string ppf (Apps.Common.interp_name i))

let interp_arg =
  Arg.(
    value
    & opt interp_conv Apps.Common.Bytecode
    & info [ "interp" ] ~docv:"EXEC"
        ~doc:
          "Executor: $(b,vm) (default) lowers the program to bytecode and runs it on a reusable            machine arena; $(b,tree) is the tree-walking reference interpreter (the conformance            oracle). Results are observationally identical.")

let variant_conv =
  let parse = function
    | "alpaca" -> Ok Apps.Common.Alpaca
    | "ink" -> Ok Apps.Common.Ink
    | "easeio" -> Ok Apps.Common.Easeio
    | "easeio-op" -> Ok Apps.Common.Easeio_op
    | s -> Error (`Msg (Printf.sprintf "unknown runtime %s (alpaca|ink|easeio|easeio-op)" s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (Apps.Common.variant_name v))

let progress_arg =
  let progress_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (Obs.Progress.mode_of_string s) in
    Arg.conv
      ( parse,
        fun ppf m ->
          Format.pp_print_string ppf
            (match m with
            | Obs.Progress.Off -> "off"
            | Obs.Progress.Stderr -> "stderr"
            | Obs.Progress.Jsonl -> "json"
            | Obs.Progress.Sink _ -> "sink") )
  in
  Arg.(
    value
    & opt progress_conv Obs.Progress.Off
    & info [ "progress" ] ~docv:"MODE"
        ~doc:
          "Progress heartbeat on stderr: $(b,off) (default), $(b,stderr) (one rewritten line: \
           cells done/total, runs/s, ETA), or $(b,json) (one compact JSON object per \
           heartbeat). Pure observation — results are identical for every mode.")

(* Build the reporter for a campaign command and run [f] with it,
   always finishing the heartbeat line. *)
let with_progress mode ~label f =
  let progress =
    match mode with Obs.Progress.Off -> None | m -> Some (Obs.Progress.create m ~label)
  in
  let r = f progress in
  Option.iter Obs.Progress.finish progress;
  r

let failure_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Failure.of_string s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Failure.to_string s))

let failure_opt_arg =
  Arg.(
    value
    & opt (some failure_conv) None
    & info [ "failure" ] ~docv:"SPEC"
        ~doc:
          "Power-failure model: $(b,none), $(b,paper), $(b,energy), \
           $(b,timer:ON_MIN,ON_MAX,OFF_MIN,OFF_MAX) (µs), $(b,at:T1,T2,...) (die at exact \
           simulated µs instants), or $(b,nth:N) (die on the N-th charge call).")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.eio" ~doc:"Task-language source file.")

(* Same write-then-rename discipline as [Trace.Json.to_file], for the
   plain-text exports. *)
let write_file_atomic path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match output_string oc s with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

(* {1 check / compile} *)

(* Parse without validation: structural problems come back as
   diagnostics from the pipeline, syntax errors as E0001. *)
let parse_or_e0001 src =
  match Lang.Parser.parse src with
  | p -> Ok p
  | exception Lang.Parser.Error (span, msg) ->
      Error [ Lang.Diagnostics.error ~code:"E0001" ~span "%s" msg ]

let print_diags ~json ~file ~src ds =
  if json then
    print_endline (Trace.Json.to_string (Lang.Diagnostics.report_to_json ~file ds))
  else if ds <> [] then print_endline (Lang.Diagnostics.render_all ~src ds)

(* Every diagnostic of the analysis and lint passes, or the E0001 of a
   syntax error. *)
let check_diags ?recharge_us src =
  match parse_or_e0001 src with
  | Error ds -> ds
  | Ok p ->
      let opts = { Lang.Pass.default_options with recharge_us } in
      let _, ctx = Lang.Pass.run_pipeline ~opts Lang.Pass.analysis_passes p in
      Lang.Diagnostics.contents ctx.Lang.Pass.bag

let check_cmd =
  let run file json expect recharge_us =
    let src = read_file file in
    let ds = check_diags ?recharge_us src in
    print_diags ~json ~file ~src ds;
    match expect with
    | Some code ->
        (* fixture mode: succeed iff the program triggers exactly the
           expected code (at least once, and nothing else) *)
        let codes =
          List.sort_uniq compare (List.map (fun d -> d.Lang.Diagnostics.code) ds)
        in
        if codes <> [ code ] then begin
          Printf.eprintf "easeio check: expected exactly %s, got [%s]\n" code
            (String.concat "; " codes);
          exit 1
        end
    | None -> if Lang.Diagnostics.has_errors ds then exit 1
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the diagnostics report as JSON.")
  in
  let expect =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect" ] ~docv:"CODE"
          ~doc:
            "Succeed only if the program triggers exactly the diagnostic $(docv) (and no \
             other) — used by the negative lint fixtures.")
  in
  let recharge_us =
    Arg.(
      value
      & opt (some int) None
      & info [ "recharge-us" ] ~docv:"US"
          ~doc:
            "Worst-case capacitor recharge time for the W0402 staleness lint (default: the \
             MF-1/Powercast platform value).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the analysis and lint passes over a program and report every diagnostic with \
          source locations. Exits nonzero when there are errors (warnings alone succeed).")
    Term.(const run $ file_arg $ json $ expect $ recharge_us)

let compile ~dump_after ~out file =
  let src = read_file file in
  (match dump_after with
  | Some pass when Lang.Pass.find Lang.Pass.compile_passes pass = None ->
      Printf.eprintf "easeio compile: unknown pass %S (one of: %s)\n" pass
        (String.concat ", " (Lang.Pass.names Lang.Pass.compile_passes));
      exit 1
  | _ -> ());
  match parse_or_e0001 src with
  | Error ds ->
      prerr_endline (Lang.Diagnostics.render_all ~src ds);
      exit 1
  | Ok p ->
      let observe name prog =
        if dump_after = Some name then
          print_endline (Lang.Pretty.program_to_string prog)
      in
      let prog, ctx = Lang.Pass.run_pipeline ~observe Lang.Pass.compile_passes p in
      let ds = Lang.Diagnostics.contents ctx.Lang.Pass.bag in
      if Lang.Diagnostics.has_errors ds then begin
        prerr_endline (Lang.Diagnostics.render_all ~src ds);
        exit 1
      end;
      (* warnings are advisory: show them on stderr, keep compiling *)
      if ds <> [] then prerr_endline (Lang.Diagnostics.render_all ~src ds);
      let text = Lang.Pretty.program_to_string prog in
      (match out with
      | Some path -> write_file_atomic path (text ^ "\n")
      | None -> if dump_after = None then print_endline text);
      if dump_after = None then
        Printf.printf "// privatization-buffer demand: %d words\n"
          ctx.Lang.Pass.art.Lang.Pass.demand_words

let dump_after_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Print the program as it stands after the named pass (one of: resolve, supported, \
           lint, war, taint, regions, guards, privatize). The dump is valid task-language \
           source.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"PATH"
        ~doc:"Write the compiled program to $(docv) (atomically) instead of stdout.")

let compile_cmd =
  let run file dump_after out = compile ~dump_after ~out file in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run the full EaseIO pass pipeline (analyses, lints, guards, regional privatization) \
          and print or write the transformed source. Compiled output re-parses, and \
          re-compiling it is the identity.")
    Term.(const run $ file_arg $ dump_after_arg $ out_arg)

(* {1 run} *)

(* A program that fails to parse or validate gets [check]'s diagnostics
   on stderr; one that fails while linking or running gets its message.
   Either way, exit 1. *)
let run_or_exit ~file src f =
  match f () with
  | () -> ()
  | exception (Lang.Parser.Error (_, msg) | Lang.Ast.Error msg) ->
      let ds = check_diags src in
      if Lang.Diagnostics.has_errors ds then prerr_endline (Lang.Diagnostics.render_all ~src ds)
      else Printf.eprintf "easeio run: %s: %s\n" file msg;
      exit 1

let run_cmd =
  let run file policy interp failures failure_spec seed json =
    let failure =
      match failure_spec with
      | Some f -> f
      | None -> if failures then Failure.paper_timer else Failure.No_failures
    in
    let src = read_file file in
    run_or_exit ~file src @@ fun () ->
    (* the JSON document is built by [Serve.Oneshot.run_doc] — the same
       function the campaign service memoizes and streams, so the CLI
       and server bytes can never drift apart *)
    if json then
      print_string
        (Trace.Json.to_string (Serve.Oneshot.run_doc ~interp ~policy ~failure ~seed src))
    else begin
      let m, _, o = Serve.Oneshot.run_metered ~interp ~policy ~failure ~seed src in
      let io = Kernel.Golden.io_executions m in
      Printf.printf "runtime:        %s\n" (Lang.Interp.policy_name policy);
      Printf.printf "failure:        %s\n" (Failure.to_string failure);
      Printf.printf "completed:      %b\n" o.Kernel.Engine.completed;
      (match o.Kernel.Engine.stuck_task with
      | Some t when o.Kernel.Engine.gave_up -> Printf.printf "gave up in:     %s\n" t
      | _ -> ());
      Printf.printf "power failures: %d\n" o.Kernel.Engine.power_failures;
      Printf.printf "total time:     %.2f ms\n"
        (float_of_int o.Kernel.Engine.total_time_us /. 1000.);
      Printf.printf "useful app:     %.2f ms\n"
        (float_of_int o.Kernel.Engine.metrics.Kernel.Metrics.useful_app_us /. 1000.);
      Printf.printf "overhead:       %.2f ms\n"
        (float_of_int o.Kernel.Engine.metrics.Kernel.Metrics.useful_ovh_us /. 1000.);
      Printf.printf "wasted:         %.2f ms\n"
        (float_of_int o.Kernel.Engine.metrics.Kernel.Metrics.wasted_us /. 1000.);
      Printf.printf "energy:         %.1f uJ\n" (o.Kernel.Engine.energy_nj /. 1000.);
      List.iter (fun (k, n) -> Printf.printf "%-15s %d\n" (k ^ ":") n) io
    end
  in
  let policy =
    Arg.(value & opt runtime_conv Lang.Interp.Easeio & info [ "runtime"; "r" ] ~doc:"Runtime policy.")
  in
  let failures =
    Arg.(
      value & flag
      & info [ "failures"; "f" ]
          ~doc:"Emulate the paper's power failures (shorthand for $(b,--failure paper).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the measurements as JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a task-language program on the simulated MCU")
    Term.(const run $ file_arg $ policy $ interp_arg $ failures $ failure_opt_arg $ seed $ json)

(* {1 apps / app} *)

let find_app name =
  match Apps.Catalog.find name with
  | spec -> spec
  | exception Not_found ->
      Printf.eprintf "unknown application %S (see `easeio apps`)\n" name;
      exit 1
  | exception Apps.Catalog.Ambiguous names ->
      Printf.eprintf "ambiguous application %S: matches %s\n" name (String.concat ", " names);
      exit 1

let apps_cmd =
  let run () =
    Printf.printf "%-14s %6s %8s\n" "name" "tasks" "io fns";
    List.iter
      (fun s ->
        Printf.printf "%-14s %6d %8d\n" s.Apps.Common.app_name s.Apps.Common.tasks
          s.Apps.Common.io_functions)
      Apps.Catalog.all
  in
  Cmd.v (Cmd.info "apps" ~doc:"List the built-in evaluation applications") Term.(const run $ const ())

let app_cmd =
  let run name variant interp runs jobs =
    match find_app name with
    | spec ->
        at_least ~cmd:"app" "runs" 1 runs;
        at_least ~cmd:"app" "jobs" 1 jobs;
        let jobs = min jobs Expkit.Pool.max_jobs in
        let agg =
          Expkit.Run.average ~jobs ~runs
            ~golden:(fun () ->
              spec.Apps.Common.run ~interp variant ~failure:Failure.No_failures ~seed:0)
            (fun ~seed -> spec.Apps.Common.run ~interp variant ~failure:Failure.paper_timer ~seed)
        in
        Printf.printf "%s under %s, %d runs:\n" name (Apps.Common.variant_name variant) runs;
        Printf.printf "  total:        %.2f ms\n" agg.Expkit.Run.avg_total_ms;
        Printf.printf "  app work:     %.2f ms\n" agg.Expkit.Run.avg_app_ms;
        Printf.printf "  overhead:     %.2f ms\n" agg.Expkit.Run.avg_ovh_ms;
        Printf.printf "  wasted:       %.2f ms\n" agg.Expkit.Run.avg_wasted_ms;
        Printf.printf "  energy:       %.1f uJ\n" agg.Expkit.Run.avg_energy_uj;
        Printf.printf "  failures:     %.2f per run\n" agg.Expkit.Run.avg_pf;
        Printf.printf "  io (redund.): %.1f (%.1f) per run\n" agg.Expkit.Run.avg_io
          agg.Expkit.Run.avg_redundant_io;
        Printf.printf "  incorrect:    %d/%d\n" agg.Expkit.Run.incorrect_runs agg.Expkit.Run.runs
  in
  let app_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application name.")
  in
  let variant =
    Arg.(value & opt variant_conv Apps.Common.Easeio & info [ "runtime"; "r" ] ~doc:"Runtime.")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Repetitions.") in
  let jobs =
    Arg.(
      value
      & opt int (Expkit.Pool.default_jobs ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for the seed sweep (default: one per core; 1 = sequential). \
             Aggregates are identical for every value.")
  in
  Cmd.v
    (Cmd.info "app" ~doc:"Run a built-in evaluation application and print measurements")
    Term.(const run $ app_name $ variant $ interp_arg $ runs $ jobs)

(* {1 trace} *)

let trace_cmd =
  let run name variant interp failure_spec seed out format =
    match find_app name with
    | spec ->
        let failure = Option.value ~default:Failure.paper_timer failure_spec in
        let recorder = Trace.Recorder.create () in
        let sheet = Obs.Sheet.create () in
        let machine_events = ref [] in
        let one =
          spec.Apps.Common.run ~interp ~sink:(Trace.Recorder.sink recorder) ~meter:sheet
            ~probe:(fun m -> machine_events := Machine.events m)
            variant ~failure ~seed
        in
        let events = Trace.Recorder.events recorder in
        (* the trace must agree, event by event, with the simulator's
           own accounting — refuse to emit one that doesn't *)
        let profile =
          match Expkit.Run.check_trace one events with
          | Ok p -> p
          | Error msg ->
              Printf.eprintf "easeio trace: trace disagrees with metrics: %s\n" msg;
              exit 1
        in
        (match format with
        | `Chrome -> Trace.Json.to_file out (Trace.Export.chrome events)
        | `Text -> write_file_atomic out (Trace.Export.text events)
        | `Profile ->
            let golden =
              spec.Apps.Common.run ~interp variant ~failure:Failure.No_failures ~seed:0
            in
            let body =
              match Obs.Attr.to_json profile with
              | Trace.Json.Obj fields ->
                  Trace.Json.Obj
                    (fields
                    @ [
                        ( "io_executions",
                          Trace.Json.Obj
                            (List.map (fun (k, n) -> (k, Trace.Json.Int n)) one.Expkit.Run.io) );
                        ( "redundant_io",
                          Trace.Json.Int (Expkit.Run.redundant_vs_golden ~golden one) );
                        ( "obs",
                          Obs.Snapshot.to_json (Obs.Snapshot.of_sheet ~events:!machine_events sheet)
                        );
                      ])
              | j -> j
            in
            Trace.Json.to_file out body);
        Printf.printf "%s under %s, seed %d: %d events -> %s\n" name
          (Apps.Common.variant_name variant) seed (List.length events) out
  in
  let app_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application name.")
  in
  let variant =
    Arg.(value & opt variant_conv Apps.Common.Easeio & info [ "runtime"; "r" ] ~doc:"Runtime.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Output file (written atomically).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("text", `Text); ("profile", `Profile) ]) `Chrome
      & info [ "format" ]
          ~doc:
            "Export format: $(b,chrome) (trace-event JSON for ui.perfetto.dev), $(b,text) (one \
             line per event), or $(b,profile) (the run's per-task/per-site attribution, I/O \
             counts, redundant I/O and metrics snapshot).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a traced run of a built-in application under a power-failure model (default: \
          the paper's timer) and export the event timeline")
    Term.(const run $ app_name $ variant $ interp_arg $ failure_opt_arg $ seed $ out $ format)

(* {1 faults} *)

let faults_cmd =
  let run name runtime interp sweep seed jobs no_resume json_out flame_out perfetto_out
      progress_mode =
    match find_app name with
    | spec ->
        at_least ~cmd:"faults" "jobs" 1 jobs;
        let jobs = min jobs Expkit.Pool.max_jobs in
        (* sessions run on the bytecode VM only, so a tree-walker sweep
           runs every case from power on *)
        let spec =
          match interp with
          | Apps.Common.Bytecode -> spec
          | Apps.Common.Tree_walk ->
              {
                spec with
                Apps.Common.run =
                  (fun ?interp:_ ?sink ?meter ?probe variant ~failure ~seed ->
                    spec.Apps.Common.run ~interp:Apps.Common.Tree_walk ?sink ?meter ?probe
                      variant ~failure ~seed);
                session = None;
              }
        in
        let variants =
          match runtime with None -> Apps.Common.all_variants | Some v -> [ v ]
        in
        let report =
          with_progress progress_mode ~label:("faults " ^ name) (fun progress ->
              Faultkit.Campaign.run ?progress ~jobs ~resume:(not no_resume) ~seed ~sweep ~variants
                spec)
        in
        let boundaries_total, boundaries_run = Faultkit.Campaign.coverage_totals report in
        Obs.Progress.log "faults %s: covered %d/%d charge boundaries%s" name boundaries_run
          boundaries_total
          (if Faultkit.Campaign.strided report then " (strided)"
           else if boundaries_run = boundaries_total && boundaries_total > 0 then " (exhaustive)"
           else "");
        (* the attribution profile must agree, to the microsecond, with
           the engine's own accounting — refuse to report one that
           doesn't (same discipline as [easeio trace]) *)
        (match Faultkit.Campaign.reconcile report with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "easeio faults: profile disagrees with metrics: %s\n" msg;
            exit 1);
        Printf.printf "%s, sweep %s, seed %d:\n" report.Faultkit.Campaign.app
          (Faultkit.Campaign.sweep_to_string sweep)
          seed;
        List.iter
          (fun (c : Faultkit.Campaign.cell) ->
            let failed = c.failed_count in
            Printf.printf "  %-10s %5d/%d cases ok (%d charge boundaries)%s\n"
              (Apps.Common.variant_name c.variant)
              (c.cases - failed) c.cases c.boundaries
              (if failed = 0 then "" else Printf.sprintf "  <- %d VIOLATIONS" failed);
            List.iter
              (fun (case : Faultkit.Campaign.case) ->
                List.iter
                  (fun v ->
                    Printf.printf "      %s: %s\n" (Failure.to_string case.schedule)
                      (Faultkit.Campaign.violation_text v))
                  case.violations)
              (Faultkit.Campaign.failed_cases ~limit:5 c.failed))
          report.Faultkit.Campaign.cells;
        Option.iter
          (fun path ->
            Trace.Json.to_file path (Faultkit.Campaign.to_json report);
            Printf.printf "report -> %s\n" path)
          json_out;
        Option.iter
          (fun path ->
            write_file_atomic path (Faultkit.Campaign.flamegraph report);
            Printf.printf "flamegraph -> %s\n" path)
          flame_out;
        Option.iter
          (fun path ->
            Trace.Json.to_file path (Faultkit.Campaign.perfetto report);
            Printf.printf "perfetto counters -> %s\n" path)
          perfetto_out;
        if not (Faultkit.Campaign.passed report) then exit 1
  in
  let app_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application name.")
  in
  let runtime =
    Arg.(
      value
      & opt (some variant_conv) None
      & info [ "runtime"; "r" ] ~doc:"Runtime to test (default: all four variants).")
  in
  let sweep =
    let sweep_conv =
      let parse s = Result.map_error (fun e -> `Msg e) (Faultkit.Campaign.sweep_of_string s) in
      Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Faultkit.Campaign.sweep_to_string s))
    in
    Arg.(
      value
      & opt sweep_conv (Faultkit.Campaign.Boundaries { stride = 1 })
      & info [ "sweep" ] ~docv:"SWEEP"
          ~doc:
            "Schedule sweep: $(b,boundaries) replays the app once per charge boundary of the \
             clean run (exhaustive), $(b,boundaries:K) every K-th boundary, $(b,random:N) draws \
             N at:/timer: schedules from the seed.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let jobs =
    Arg.(
      value
      & opt int (Expkit.Pool.default_jobs ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for the schedule sweep (default: one per core; 1 = sequential), \
             resumed or not: each domain that resumes cases paces its own checkpoints. Reports \
             are bit-identical for every value.")
  in
  let no_resume =
    Arg.(
      value & flag
      & info [ "no-resume" ]
          ~doc:
            "Replay every boundary case from power on instead of resuming from the pacer run's \
             engine checkpoints. The report is byte-identical either way and both paths use \
             the --jobs domains; this one is slower, a reference for the resumed path.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the campaign report as JSON (atomically).")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"PATH"
          ~doc:
            "Write the campaign's energy-attribution profile as folded-stack flamegraph text \
             (app/overhead/wasted µs per task, summed over the whole sweep; feed to \
             flamegraph.pl or speedscope).")
  in
  let perfetto_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"PATH"
          ~doc:
            "Write per-cell counter tracks (app/overhead/wasted µs, power failures, failed \
             cases) as Chrome trace JSON for ui.perfetto.dev; the time axis is the logical \
             cell index.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a fault-injection campaign on a built-in application: fan failure schedules over \
          the domain pool and judge every run with the differential NV-state, \
          Always-re-execution and forward-progress oracles. Exits nonzero on any violation.")
    Term.(
      const run $ app_name $ runtime $ interp_arg $ sweep $ seed $ jobs $ no_resume $ json_out
      $ flame_out $ perfetto_out $ progress_arg)

(* {1 explore} *)

let explore_cmd =
  let run name runtime depth max_states no_prune ablate_regions ablate_semantics seed json_out
      flame_out progress_mode =
    at_least ~cmd:"explore" "depth" 0 depth;
    Option.iter (at_least ~cmd:"explore" "max-states" 1) max_states;
    match find_app name with
    | spec ->
        let report =
          with_progress progress_mode ~label:("explore " ^ name) (fun progress ->
              Explore.explore ?progress ~depth ?max_states ~prune:(not no_prune) ~ablate_regions
                ~ablate_semantics spec runtime ~seed)
        in
        Printf.printf "%s under %s, seed %d: depth %d over %d charge boundaries\n"
          report.Explore.app
          (Apps.Common.variant_name report.Explore.variant)
          seed depth report.Explore.boundaries;
        Printf.printf "  %d state(s) explored, %d pruned as convergent%s\n" report.Explore.states
          report.Explore.pruned
          (if report.Explore.truncated then "  (truncated by --max-states)" else "");
        List.iteri
          (fun i (f : Explore.finding) ->
            if i < 5 then
              List.iter
                (fun v ->
                  Printf.printf "  reboots at charge %s: %s\n"
                    (String.concat ", " (List.map string_of_int f.Explore.reboots))
                    (Faultkit.Campaign.violation_text v))
                f.Explore.violations)
          report.Explore.findings;
        (if List.length report.Explore.findings > 5 then
           Printf.printf "  ... and %d more finding(s)\n" (List.length report.Explore.findings - 5));
        Option.iter
          (fun path ->
            Trace.Json.to_file path (Explore.to_json report);
            Printf.printf "report -> %s\n" path)
          json_out;
        Option.iter
          (fun path ->
            write_file_atomic path (Explore.flamegraph report);
            Printf.printf "flamegraph -> %s\n" path)
          flame_out;
        if not (Explore.passed report) then begin
          Printf.eprintf "easeio explore: %d finding(s)\n" (List.length report.Explore.findings);
          exit 1
        end
  in
  let app_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application name.")
  in
  let runtime =
    Arg.(
      value & opt variant_conv Apps.Common.Easeio & info [ "runtime"; "r" ] ~doc:"Runtime to test.")
  in
  let depth =
    Arg.(
      value & opt int 1
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Maximum injected reboots per execution: 1 enumerates every single failure placement \
             (the exhaustive boundary sweep), 2 every failure-then-failure pair of the surviving \
             states, and so on.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Stop after exploring $(docv) states (the report is marked truncated).")
  in
  let no_prune =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Re-explore states whose behavioral hash was already visited (slow; for auditing the \
             convergence pruning).")
  in
  let ablate_regions =
    Arg.(
      value & flag
      & info [ "ablate-regions" ]
          ~doc:
            "Test hook: explore EaseIO with regional privatization disabled — the walk must then \
             surface NV-state findings.")
  in
  let ablate_semantics =
    Arg.(
      value & flag
      & info [ "ablate-semantics" ]
          ~doc:"Test hook: force every I/O annotation to Always before exploring.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the exploration report as JSON (atomically).")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"PATH"
          ~doc:
            "Write the walk's attribution profile as folded-stack flamegraph text, including the \
             explorer's re-positioning time as an $(b,explore) phase frame.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively explore a built-in application's reboot space: fork copy-on-write machine \
          snapshots at every charge boundary, judge every post-reboot continuation against the \
          clean run's NV image, and prune behaviorally convergent states. Exits nonzero on any \
          violation.")
    Term.(
      const run $ app_name $ runtime $ depth $ max_states $ no_prune $ ablate_regions
      $ ablate_semantics $ seed $ json_out $ flame_out $ progress_arg)

(* {1 fuzz} *)

let fuzz_cmd =
  let run count seed jobs budget max_shrink json_out save_dir ablate_regions ablate_semantics
      interp replay progress_mode =
    at_least ~cmd:"fuzz" "count" 1 count;
    at_least ~cmd:"fuzz" "jobs" 1 jobs;
    at_least ~cmd:"fuzz" "budget" 1 budget;
    at_least ~cmd:"fuzz" "max-shrink" 0 max_shrink;
    let jobs = min jobs Expkit.Pool.max_jobs in
    let options =
      {
        Conformance.Fuzz.count;
        seed;
        jobs;
        budget;
        max_shrink;
        ablate_regions;
        ablate_semantics;
        (* --interp tree drops the shadow VM runs and fuzzes the
           tree-walker alone *)
        check_vm = (interp = Apps.Common.Bytecode);
      }
    in
    match replay with
    | Some file -> (
        (* re-run one committed reproducer through the differential judge *)
        let src = read_file file in
        match parse_or_e0001 src with
        | Error ds ->
            prerr_endline (Lang.Diagnostics.render_all ~src ds);
            exit 1
        | Ok prog -> (
            let case = { Conformance.Gen.gen_seed = seed; intent = Conformance.Gen.Clean; prog } in
            let out =
              Conformance.Judge.judge ~config:(Conformance.Fuzz.config_of options) case
            in
            Printf.printf "%s: %d runs, %d tainted NV global(s) excused\n" file
              out.Conformance.Judge.runs
              (List.length out.Conformance.Judge.tainted_nv);
            match out.Conformance.Judge.violations with
            | [] -> print_endline "verdict: PASS"
            | vs ->
                List.iter
                  (fun v -> Printf.printf "  %s\n" (Conformance.Judge.describe v))
                  vs;
                Printf.eprintf "easeio fuzz: %d violation(s) in %s\n" (List.length vs) file;
                exit 1))
    | None ->
        let report =
          with_progress progress_mode ~label:"fuzz" (fun progress ->
              Conformance.Fuzz.run ?progress options)
        in
        Printf.printf "fuzz: %d cases, seed %d: %d clean, %d expected-diagnostic, %d violating \
                       (%d runs)\n"
          report.Conformance.Fuzz.cases seed report.Conformance.Fuzz.clean
          report.Conformance.Fuzz.expected_diag report.Conformance.Fuzz.violating
          report.Conformance.Fuzz.total_runs;
        Obs.Progress.log "fuzz: probed %d/%d charge boundaries%s"
          report.Conformance.Fuzz.boundaries_run report.Conformance.Fuzz.boundaries_total
          (if report.Conformance.Fuzz.strided then " (strided to fit --budget)"
           else if
             report.Conformance.Fuzz.boundaries_run = report.Conformance.Fuzz.boundaries_total
             && report.Conformance.Fuzz.boundaries_total > 0
           then " (exhaustive)"
           else "");
        List.iter
          (fun (v, n) -> Printf.printf "  expected-unsafe baseline divergence: %-8s %d\n" v n)
          report.Conformance.Fuzz.unsafe_baseline;
        List.iter
          (fun (k, n) -> Printf.printf "  VIOLATION %-24s %d\n" k n)
          report.Conformance.Fuzz.violation_kinds;
        List.iter
          (fun (c : Conformance.Fuzz.counterexample) ->
            Printf.printf "  counterexample (gen seed %d): %d -> %d statements, %s\n"
              c.Conformance.Fuzz.gen_seed c.Conformance.Fuzz.original_stmts
              c.Conformance.Fuzz.shrunk_stmts
              (match c.Conformance.Fuzz.violations with
              | v :: _ -> Conformance.Judge.describe v
              | [] -> "?"))
          report.Conformance.Fuzz.counterexamples;
        Option.iter
          (fun path ->
            Trace.Json.to_file path (Conformance.Fuzz.to_json report);
            Printf.printf "report -> %s\n" path)
          json_out;
        Option.iter
          (fun dir ->
            let paths = Conformance.Fuzz.save_reproducers ~dir options report in
            List.iter (fun p -> Printf.printf "reproducer -> %s\n" p) paths)
          save_dir;
        if not (Conformance.Fuzz.passed report) then begin
          Printf.eprintf "easeio fuzz: %d violating case(s)\n" report.Conformance.Fuzz.violating;
          exit 1
        end
  in
  let count =
    Arg.(value & opt int 100 & info [ "count"; "n" ] ~doc:"Generated programs to judge.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let jobs =
    Arg.(
      value
      & opt int (Expkit.Pool.default_jobs ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for the case sweep (default: one per core; 1 = sequential). Reports \
             are byte-identical for every value.")
  in
  let budget =
    Arg.(
      value
      & opt int Conformance.Fuzz.default_options.Conformance.Fuzz.budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Nth-charge failure boundaries probed per runtime variant per program.")
  in
  let max_shrink =
    Arg.(
      value
      & opt int Conformance.Fuzz.default_options.Conformance.Fuzz.max_shrink
      & info [ "max-shrink" ] ~docv:"K"
          ~doc:"Judge probes the shrinker may spend minimizing one counterexample.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the campaign report as JSON (atomically).")
  in
  let save_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-dir" ] ~docv:"DIR"
          ~doc:"Write each shrunk counterexample as a re-runnable .eio reproducer under $(docv).")
  in
  let ablate_regions =
    Arg.(
      value & flag
      & info [ "ablate-regions" ]
          ~doc:
            "Test hook: run EaseIO with regional privatization disabled (the W0403 guard) — the \
             harness must then find WAR-across-DMA counterexamples.")
  in
  let ablate_semantics =
    Arg.(
      value & flag
      & info [ "ablate-semantics" ]
          ~doc:"Test hook: force every I/O annotation to Always before execution.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"PROG.eio"
          ~doc:"Judge one saved reproducer instead of generating programs; exits 1 on violation.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Conformance-fuzz the pipeline: generate seeded random task programs, check them, \
          compile them, and differentially execute them under all four runtimes across an \
          Nth-charge failure-boundary sweep, shrinking any counterexample. Exits nonzero on any \
          violation.")
    Term.(
      const run $ count $ seed $ jobs $ budget $ max_shrink $ json_out $ save_dir
      $ ablate_regions $ ablate_semantics $ interp_arg $ replay $ progress_arg)

(* {1 serve / client} *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on (or connect to) a Unix-domain socket.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"P"
        ~doc:"Listen on (or connect to) TCP loopback port $(docv) (0 picks a free port).")

let addr_of ~cmd socket port =
  match (socket, port) with
  | Some path, None -> Serve.Server.Unix_sock path
  | None, Some p when p < 0 || p > 65535 ->
      Printf.eprintf "easeio %s: --port must be in 0..65535\n" cmd;
      exit 1
  | None, Some p -> Serve.Server.Tcp p
  | None, None ->
      Printf.eprintf "easeio %s: pass --socket PATH or --port P\n" cmd;
      exit 2
  | Some _, Some _ ->
      Printf.eprintf "easeio %s: --socket and --port are mutually exclusive\n" cmd;
      exit 2

let serve_cmd =
  let run socket port jobs cache =
    let addr = addr_of ~cmd:"serve" socket port in
    at_least ~cmd:"serve" "jobs" 1 jobs;
    let jobs = min jobs Expkit.Pool.max_jobs in
    at_least ~cmd:"serve" "cache" 1 cache;
    let config = { (Serve.Server.default_config addr) with Serve.Server.jobs; cache_cap = cache } in
    let t =
      match Serve.Server.start config with
      | t -> t
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "easeio serve: cannot listen: %s\n" (Unix.error_message e);
          exit 1
    in
    (* SIGTERM/SIGINT request a graceful stop: running jobs finish,
       workers and threads are joined, the socket is unlinked *)
    let on_signal _ = Serve.Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    (match addr with
    | Serve.Server.Tcp _ ->
        Printf.printf "easeio serve: listening on 127.0.0.1:%d (%d worker domains)\n%!"
          (Serve.Server.port t) jobs
    | Serve.Server.Unix_sock path ->
        Printf.printf "easeio serve: listening on %s (%d worker domains)\n%!" path jobs);
    Serve.Server.run t
  in
  let jobs =
    Arg.(
      value
      & opt int (Expkit.Pool.default_jobs ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains sharding campaign cells (default: one per core). Responses are \
             byte-identical for every value.")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:"Completed-cell LRU capacity (entries; keyed by content hashes).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived campaign service: accept run/faults/fuzz/explore requests over a \
          Unix or TCP socket, shard cells across worker domains, stream incremental results and \
          progress heartbeats, and memoize completed cells in a bounded LRU. Responses are \
          byte-identical to the one-shot CLI. SIGTERM/SIGINT stop gracefully.")
    Term.(const run $ socket_arg $ port_arg $ jobs $ cache)

let client_cmd =
  let run socket port spec out =
    let addr = addr_of ~cmd:"client" socket port in
    let payload =
      if String.length spec > 0 && spec.[0] = '@' then
        read_file (String.sub spec 1 (String.length spec - 1))
      else spec
    in
    let fields =
      match Trace.Json.of_string payload with
      | Ok (Trace.Json.Obj fields) -> fields
      | Ok _ ->
          Printf.eprintf "easeio client: the spec must be a JSON object\n";
          exit 2
      | Error msg ->
          Printf.eprintf "easeio client: bad spec: %s\n" msg;
          exit 2
    in
    let cmd =
      match List.assoc_opt "cmd" fields with Some (Trace.Json.String s) -> s | _ -> ""
    in
    let c =
      match Serve.Client.connect_retry ~attempts:40 addr with
      | c -> c
      | exception (Unix.Unix_error _ | Sys_error _) ->
          Printf.eprintf "easeio client: cannot connect\n";
          exit 1
    in
    let finally () = Serve.Client.close c in
    Fun.protect ~finally (fun () ->
        match cmd with
        | "run" | "faults" | "fuzz" | "explore" -> (
            (* job request: make sure it carries an id, stream frames,
               print the verbatim result document *)
            let id, payload =
              match List.assoc_opt "id" fields with
              | Some (Trace.Json.Int n) -> (n, payload)
              | _ ->
                  ( 1,
                    Trace.Json.to_string
                      (Trace.Json.Obj (("id", Trace.Json.Int 1) :: fields)) )
            in
            match Serve.Client.rpc c ~id payload with
            | Ok o -> (
                match out with
                | Some path -> write_file_atomic path o.Serve.Client.doc
                | None -> print_string o.Serve.Client.doc)
            | Error (`Error (code, msg)) ->
                Printf.eprintf "easeio client: %s: %s\n" code msg;
                exit 1
            | Error `Cancelled ->
                Printf.eprintf "easeio client: request cancelled\n";
                exit 1
            | Error (`Transport msg) ->
                Printf.eprintf "easeio client: %s\n" msg;
                exit 1)
        | _ -> (
            (* control request (ping/stats/shutdown/...): ship it as
               written and print the server's raw response frame *)
            Serve.Client.send c payload;
            match Serve.Wire.read_frame c.Serve.Client.ic with
            | Ok resp -> print_endline resp
            | Error _ ->
                Printf.eprintf "easeio client: connection closed\n";
                exit 1))
  in
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC"
          ~doc:
            "Request JSON (or $(b,@FILE) to read it from a file): an object with a $(b,cmd) \
             field — $(b,run), $(b,faults), $(b,fuzz), $(b,explore), $(b,ping), $(b,stats), \
             $(b,cancel) or $(b,shutdown).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:"Write the result document to $(docv) (atomically) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running campaign service and print the response: the verbatim \
          result document for job requests (byte-identical to the one-shot CLI), the raw \
          response frame for control requests. Exits 1 on an error frame.")
    Term.(const run $ socket_arg $ port_arg $ spec $ out)

(* {1 report} *)

let report_cmd =
  let run base cur check tol_rel tol_abs tol_wall =
    let load path =
      match Trace.Json.of_file path with
      | Ok j -> j
      | Error msg ->
          Printf.eprintf "easeio report: %s: %s\n" path msg;
          exit 2
    in
    let base_j = load base in
    match cur with
    | None -> (
        (* render one document: a metric snapshot gets the counter
           table; anything else (campaign/bench JSON) gets its
           flattened rows, plus the counter table of an embedded
           "metrics" snapshot when there is one *)
        match Obs.Snapshot.of_json base_j with
        | Ok snap -> print_string (Obs.Snapshot.render snap)
        | Error _ ->
            List.iter (fun (p, v) -> Printf.printf "%s %s\n" p v) (Obs.Report.rows base_j);
            (match base_j with
            | Trace.Json.Obj fields -> (
                match List.assoc_opt "metrics" fields with
                | Some m -> (
                    match Obs.Snapshot.of_json m with
                    | Ok snap -> print_string ("\n" ^ Obs.Snapshot.render snap)
                    | Error _ -> ())
                | None -> ())
            | _ -> ()))
    | Some cur_path ->
        let tol = { Obs.Report.rel = tol_rel; abs = tol_abs; wall_factor = tol_wall } in
        let findings = Obs.Report.diff ~tol ~base:base_j ~cur:(load cur_path) () in
        print_string (Obs.Report.render findings);
        if check && Obs.Report.regressions findings <> [] then exit 1
  in
  let base =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASE.json"
          ~doc:"Baseline document (or the only document, when rendering a single file).")
  in
  let cur =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"Current document to diff against the baseline.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit 1 when the diff contains a regression (the CI perf-gate mode).")
  in
  let tol_rel =
    Arg.(
      value
      & opt float Obs.Report.default_tol.Obs.Report.rel
      & info [ "tol-rel" ] ~docv:"R"
          ~doc:
            "One-sided relative tolerance for simulated (lower-is-better) metrics: the current \
             value regresses past $(i,base + R*|base| + tol-abs).")
  in
  let tol_abs =
    Arg.(
      value
      & opt float Obs.Report.default_tol.Obs.Report.abs
      & info [ "tol-abs" ] ~docv:"A"
          ~doc:"Absolute tolerance floor so small integer metrics don't trip $(b,--tol-rel).")
  in
  let tol_wall =
    Arg.(
      value
      & opt float Obs.Report.default_tol.Obs.Report.wall_factor
      & info [ "tol-wall" ] ~docv:"F"
          ~doc:
            "Allowed slowdown factor for host-dependent throughput metrics (*_runs_per_s): \
             only a collapse below $(i,base/F) regresses.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a metrics/bench JSON document, or diff two with per-metric tolerances \
          (informational provenance rows, a wide multiplicative band for host-dependent \
          throughput, one-sided relative tolerance for simulated metrics). With $(b,--check), \
          exit 1 on any regression — the CI perf gate.")
    Term.(const run $ base $ cur $ check $ tol_rel $ tol_abs $ tol_wall)

let () =
  let doc = "EaseIO: efficient and safe I/O for intermittent systems (simulated)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "easeio" ~doc)
          [
            check_cmd;
            compile_cmd;
            run_cmd;
            apps_cmd;
            app_cmd;
            trace_cmd;
            faults_cmd;
            explore_cmd;
            fuzz_cmd;
            serve_cmd;
            client_cmd;
            report_cmd;
          ]))
