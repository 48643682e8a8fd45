(* Tests for the task model and the intermittent execution engine. *)

open Platform
open Kernel

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let simple_app m =
  let x = Machine.alloc m Memory.Fram ~name:"x" ~words:1 in
  let t1 =
    {
      Task.name = "t1";
      body =
        (fun m ->
          Machine.write m Memory.Fram x 5;
          Task.Next "t2");
    }
  in
  let t2 =
    {
      Task.name = "t2";
      body =
        (fun m ->
          Machine.write m Memory.Fram x (Machine.read m Memory.Fram x + 1);
          Task.Stop);
    }
  in
  (Task.make_app ~name:"simple" ~entry:"t1" [ t1; t2 ], x)

let test_run_to_completion () =
  let m = Machine.create () in
  let app, x = simple_app m in
  let o = Engine.run m app in
  checkb "completed" true o.Engine.completed;
  checki "x = 6" 6 (Machine.read m Memory.Fram x);
  checki "no failures" 0 o.Engine.power_failures;
  checki "two commits" 2 o.Engine.metrics.Metrics.commits

let test_make_app_validates_entry () =
  Alcotest.check_raises "bad entry" (Invalid_argument "Task.make_app: unknown entry task nope")
    (fun () ->
      ignore
        (Task.make_app ~name:"bad" ~entry:"nope" [ { Task.name = "t"; body = (fun _ -> Task.Stop) } ]))

let test_task_reexecutes_after_failure () =
  let m = Machine.create () in
  let runs = ref 0 in
  let t =
    {
      Task.name = "t";
      body =
        (fun m ->
          incr runs;
          Machine.cpu m 10;
          if Machine.failures m = 0 then Machine.die m;
          Task.Stop);
    }
  in
  let app = Task.make_app ~name:"retry" ~entry:"t" [ t ] in
  let o = Engine.run m app in
  checkb "completed" true o.Engine.completed;
  checki "two attempts" 2 !runs;
  checki "one failure" 1 o.Engine.power_failures;
  checki "metrics attempts" 2 o.Engine.metrics.Metrics.attempts

let test_all_or_nothing_direct_nv_increment () =
  (* the classic idempotence hazard: with direct NV access, a re-executed
     task increments twice *)
  let m = Machine.create () in
  let c = Machine.alloc m Memory.Fram ~name:"c" ~words:1 in
  let t =
    {
      Task.name = "t";
      body =
        (fun m ->
          Machine.write m Memory.Fram c (Machine.read m Memory.Fram c + 1);
          if Machine.failures m = 0 then Machine.die m;
          Task.Stop);
    }
  in
  let app = Task.make_app ~name:"incr" ~entry:"t" [ t ] in
  ignore (Engine.run m app);
  checki "incremented twice (bug reproduced)" 2 (Machine.read m Memory.Fram c)

let test_wasted_work_accounting () =
  let m = Machine.create () in
  let t =
    {
      Task.name = "t";
      body =
        (fun m ->
          Machine.cpu m 100;
          if Machine.failures m = 0 then Machine.die m;
          Task.Stop);
    }
  in
  let app = Task.make_app ~name:"waste" ~entry:"t" [ t ] in
  let o = Engine.run m app in
  checkb "wasted >= 100us" true (o.Engine.metrics.Metrics.wasted_us >= 100);
  checkb "useful >= 100us" true (o.Engine.metrics.Metrics.useful_app_us >= 100)

let test_resume_at_interrupted_task () =
  (* a failure in t2 must not re-run t1 *)
  let m = Machine.create () in
  let t1_runs = ref 0 and t2_runs = ref 0 in
  let t1 =
    {
      Task.name = "t1";
      body =
        (fun _ ->
          incr t1_runs;
          Task.Next "t2");
    }
  in
  let t2 =
    {
      Task.name = "t2";
      body =
        (fun m ->
          incr t2_runs;
          if Machine.failures m = 0 then Machine.die m;
          Task.Stop);
    }
  in
  let app = Task.make_app ~name:"resume" ~entry:"t1" [ t1; t2 ] in
  ignore (Engine.run m app);
  checki "t1 once" 1 !t1_runs;
  checki "t2 twice" 2 !t2_runs

let test_max_failures_gives_up () =
  let m =
    Machine.create
      ~failure:(Failure.Timer { on_min_us = 50; on_max_us = 60; off_min_us = 1; off_max_us = 1 })
      ()
  in
  (* a task that needs more than one on-interval can never finish: the
     non-termination bug of §3.5 *)
  let t = { Task.name = "t"; body = (fun m -> Machine.cpu m 1_000; Task.Stop) } in
  let app = Task.make_app ~name:"nonterm" ~entry:"t" [ t ] in
  let o = Engine.run ~max_failures:50 m app in
  checkb "gave up" false o.Engine.completed;
  checkb "gave_up flag" true o.Engine.gave_up;
  Alcotest.(check (option string)) "stuck task named" (Some "t") o.Engine.stuck_task;
  (* the final state was never reached, so correctness is unknowable *)
  Alcotest.(check (option bool)) "correct unknowable" None o.Engine.correct

let test_hooks_called_and_tagged () =
  let m = Machine.create () in
  let starts = ref 0 and commits = ref 0 in
  let hooks =
    {
      Engine.on_task_start =
        (fun m _ ->
          incr starts;
          Alcotest.(check bool) "overhead tag" true (Machine.tag m = Machine.Overhead);
          Machine.cpu m 7);
      on_commit = (fun _ _ -> incr commits);
      on_reboot = (fun _ -> ());
    }
  in
  let app, _ = simple_app m in
  let o = Engine.run ~hooks m app in
  checki "starts" 2 !starts;
  checki "commits" 2 !commits;
  checkb "hook work counted as overhead" true (o.Engine.metrics.Metrics.useful_ovh_us >= 14)

let test_check_predicate_reported () =
  let m = Machine.create () in
  let t = { Task.name = "t"; body = (fun _ -> Task.Stop) } in
  let app = Task.make_app ~check:(fun _ -> true) ~name:"chk" ~entry:"t" [ t ] in
  let o = Engine.run m app in
  Alcotest.(check (option bool)) "correct" (Some true) o.Engine.correct

let test_golden_redundant_io () =
  let run failure =
    let m = Machine.create ~failure () in
    let t =
      {
        Task.name = "t";
        body =
          (fun m ->
            ignore (Periph.Sensors.temperature_dc m);
            if Machine.failure_spec m <> Failure.No_failures && Machine.failures m = 0 then
              Machine.die m;
            Task.Stop);
      }
    in
    let app = Task.make_app ~name:"io" ~entry:"t" [ t ] in
    Expkit.Run.of_outcome m (Engine.run m app)
  in
  let golden = run Failure.No_failures in
  (* without failures the task never dies, so this run matches golden *)
  let test = run Failure.No_failures in
  checki "golden reads once" 1 (List.assoc "io:Temp" golden.Expkit.Run.io);
  checki "no redundancy between identical runs" 0 (Expkit.Run.redundant_vs_golden ~golden test);
  let failing =
    run (Failure.Timer { on_min_us = 1_000_000; on_max_us = 1_000_001; off_min_us = 1; off_max_us = 1 })
  in
  checki "one redundant read" 1 (Expkit.Run.redundant_vs_golden ~golden failing)

let test_compose_hooks_order () =
  let trace = ref [] in
  let mk tag =
    {
      Engine.on_task_start = (fun _ _ -> trace := (tag ^ ".start") :: !trace);
      on_commit = (fun _ _ -> trace := (tag ^ ".commit") :: !trace);
      on_reboot = (fun _ -> ());
    }
  in
  let hooks = Engine.compose_hooks (mk "a") (mk "b") in
  let m = Machine.create () in
  let t = { Task.name = "t"; body = (fun _ -> Task.Stop) } in
  ignore (Engine.run ~hooks m (Task.make_app ~name:"h" ~entry:"t" [ t ]));
  Alcotest.(check (list string))
    "order" [ "a.start"; "b.start"; "a.commit"; "b.commit" ] (List.rev !trace)

let test_commit_is_failure_atomic () =
  (* regression: a power failure striking inside the commit sequence is
     deferred past it — the task has committed and must NOT re-execute
     (re-running a committed task against mutated state corrupts it) *)
  let m = Machine.create () in
  let t1_runs = ref 0 and t2_runs = ref 0 in
  let hooks =
    {
      Engine.on_task_start = (fun _ _ -> ());
      on_commit =
        (fun m task -> if task = "t1" && Machine.failures m = 0 then Machine.die m);
      on_reboot = (fun _ -> ());
    }
  in
  let t1 = { Task.name = "t1"; body = (fun _ -> incr t1_runs; Task.Next "t2") } in
  let t2 = { Task.name = "t2"; body = (fun _ -> incr t2_runs; Task.Stop) } in
  let app = Task.make_app ~name:"atomic" ~entry:"t1" [ t1; t2 ] in
  let o = Engine.run ~hooks m app in
  checkb "completed" true o.Engine.completed;
  checki "t1 ran exactly once (commit survived the failure)" 1 !t1_runs;
  checki "t2 ran after the reboot" 1 !t2_runs;
  checki "the failure was a real reboot" 1 o.Engine.power_failures

let test_critical_defers_failure () =
  let m = Machine.create () in
  Machine.boot m;
  let reached_end = ref false in
  (match
     Machine.critical m (fun () ->
         Machine.die m;
         (* still alive inside the section *)
         Machine.cpu m 5;
         reached_end := true)
   with
  | () -> Alcotest.fail "deferred failure must fire at section exit"
  | exception Machine.Power_failure -> ());
  checkb "section ran to completion first" true !reached_end

let test_critical_nests () =
  let m = Machine.create () in
  Machine.boot m;
  match
    Machine.critical m (fun () ->
        Machine.critical m (fun () -> Machine.die m);
        (* inner exit must not fire inside the outer section *)
        Machine.cpu m 3)
  with
  | () -> Alcotest.fail "failure must fire at the outermost exit"
  | exception Machine.Power_failure -> ()

(* Invariant: the metrics buckets partition all on-time work. *)
let prop_metrics_partition_work =
  QCheck.Test.make ~name:"metrics buckets partition charged work" ~count:100
    QCheck.(int_range 20 200)
    (fun on_min ->
      let m =
        Machine.create ~seed:on_min
          ~failure:
            (Failure.Timer
               { on_min_us = on_min; on_max_us = on_min * 3; off_min_us = 1; off_max_us = 5 })
          ()
      in
      let t =
        {
          Task.name = "t";
          body =
            (fun m ->
              Machine.cpu m 40;
              Machine.with_tag m Machine.Overhead (fun () -> Machine.cpu m 10);
              Task.Stop);
        }
      in
      let o = Engine.run m (Task.make_app ~name:"p" ~entry:"t" [ t ]) in
      let useful =
        o.Engine.metrics.Metrics.useful_app_us + o.Engine.metrics.Metrics.useful_ovh_us
      in
      (* total wall clock = work + off intervals; work = useful + wasted *)
      o.Engine.completed
      && useful + o.Engine.metrics.Metrics.wasted_us <= o.Engine.total_time_us
      && Metrics.total_us o.Engine.metrics = useful + o.Engine.metrics.Metrics.wasted_us)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "kernel"
    [
      ( "engine",
        [
          tc "run to completion" `Quick test_run_to_completion;
          tc "make_app validates entry" `Quick test_make_app_validates_entry;
          tc "task re-executes after failure" `Quick test_task_reexecutes_after_failure;
          tc "direct NV increment doubles (bug)" `Quick test_all_or_nothing_direct_nv_increment;
          tc "wasted work accounting" `Quick test_wasted_work_accounting;
          tc "resume at interrupted task" `Quick test_resume_at_interrupted_task;
          tc "max failures gives up" `Quick test_max_failures_gives_up;
          tc "hooks called and tagged" `Quick test_hooks_called_and_tagged;
          tc "check predicate reported" `Quick test_check_predicate_reported;
          tc "compose hooks order" `Quick test_compose_hooks_order;
          tc "commit is failure-atomic" `Quick test_commit_is_failure_atomic;
          tc "critical defers failure" `Quick test_critical_defers_failure;
          tc "critical nests" `Quick test_critical_nests;
        ] );
      ( "golden",
        [
          tc "redundant io" `Quick test_golden_redundant_io;
          QCheck_alcotest.to_alcotest prop_metrics_partition_work;
        ] );
    ]
