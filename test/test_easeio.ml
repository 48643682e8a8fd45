(* Tests for the EaseIO core runtime: re-execution semantics, I/O blocks
   and precedence, dependence forcing, memory-safe DMA, regional
   privatization. *)

open Platform
open Kernel

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Run a single-task app under EaseIO; [body rt m] is the task body. *)
let run_task ?priv_buffer_words ?(fail_once = false) body =
  let m = Machine.create () in
  let rt = Easeio.Runtime.create ?priv_buffer_words m in
  let t =
    {
      Task.name = "t";
      body =
        (fun m ->
          body rt m;
          if fail_once && Machine.failures m = 0 then Machine.die m;
          Task.Stop);
    }
  in
  let app = Task.make_app ~name:"e" ~entry:"t" [ t ] in
  let o = Engine.run ~hooks:(Easeio.Runtime.hooks rt) m app in
  (m, rt, o)

(* {1 Re-execution semantics} *)

let test_single_skips_on_reexecution () =
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        ignore
          (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Single (fun m ->
               Periph.Sensors.temperature_dc m));
        Machine.cpu m 10)
  in
  checki "sensor ran once" 1 (Machine.event m "io:Temp")

let test_single_restores_value () =
  let values = ref [] in
  let _ =
    run_task ~fail_once:true (fun rt _ ->
        let v =
          Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Single (fun m ->
              Periph.Sensors.temperature_dc m)
        in
        values := v :: !values)
  in
  match !values with
  | [ second; first ] -> checki "restored value identical" first second
  | _ -> Alcotest.fail "expected two attempts"

let test_always_reexecutes () =
  let m, _, _ =
    run_task ~fail_once:true (fun rt _ ->
        ignore
          (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Always (fun m ->
               Periph.Sensors.temperature_dc m)))
  in
  checki "sensor ran twice" 2 (Machine.event m "io:Temp")

let timely_app ~freshness_us ~work_after_us =
  run_task ~fail_once:true (fun rt m ->
      ignore
        (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:(Easeio.Semantics.Timely freshness_us)
           (fun m -> Periph.Sensors.temperature_dc m));
      Machine.idle m work_after_us)

let test_timely_reexecutes_when_stale () =
  let m, _, _ = timely_app ~freshness_us:1_000 ~work_after_us:3_000 in
  checki "stale -> re-read" 2 (Machine.event m "io:Temp")

let test_timely_skips_when_fresh () =
  let m, _, _ = timely_app ~freshness_us:1_000_000 ~work_after_us:3_000 in
  checki "fresh -> skip" 1 (Machine.event m "io:Temp")

let test_flags_cleared_at_commit () =
  (* two execution instances of the same task (via a loop in the task
     graph) must each run a Single operation once *)
  let m = Machine.create () in
  let rt = Easeio.Runtime.create m in
  let visits = Machine.alloc m Memory.Fram ~name:"visits" ~words:1 in
  let sense =
    {
      Task.name = "sense";
      body =
        (fun m ->
          ignore
            (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Single (fun m ->
                 Periph.Sensors.temperature_dc m));
          let n = Machine.read m Memory.Fram visits + 1 in
          Machine.write m Memory.Fram visits n;
          if n < 2 then Task.Next "sense" else Task.Stop);
    }
  in
  let app = Task.make_app ~name:"loop" ~entry:"sense" [ sense ] in
  ignore (Engine.run ~hooks:(Easeio.Runtime.hooks rt) m app);
  checki "one execution per task instance" 2 (Machine.event m "io:Temp")

let test_branch_stability () =
  (* safe program execution (§3.5): even though the sensed value would
     differ across attempts, the restored private copy keeps the branch
     decision stable, so exactly one of the two flags is set *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        let stdy = 100 and alarm = 101 in
        let v =
          Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Single (fun m ->
              Periph.Sensors.temperature_dc m)
        in
        if v < 100 then Machine.write m Memory.Fram stdy 1
        else Machine.write m Memory.Fram alarm 1)
  in
  let stdy = Machine.read m Memory.Fram 100 and alarm = Machine.read m Memory.Fram 101 in
  checki "exactly one flag" 1 (stdy + alarm)

(* {1 I/O blocks and precedence} *)

let test_completed_single_block_skips_always_inner () =
  (* Fig. 3: a Single block containing an Always operation: once the
     block completed, nothing inside re-executes *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        Easeio.Runtime.io_block rt ~name:"blk" ~sem:Easeio.Semantics.Single (fun () ->
            ignore
              (Easeio.Runtime.call_io rt ~name:"Humd" ~sem:Easeio.Semantics.Always (fun m ->
                   Periph.Sensors.humidity_pct m)));
        Machine.cpu m 5)
  in
  checki "inner Always ran once" 1 (Machine.event m "io:Humd")

let test_violated_timely_block_forces_single_inner () =
  (* §3.3.1: a stale Timely block overrides the Single annotation of an
     inner operation *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        Easeio.Runtime.io_block rt ~name:"blk" ~sem:(Easeio.Semantics.Timely 500) (fun () ->
            ignore
              (Easeio.Runtime.call_io rt ~name:"Pres" ~sem:Easeio.Semantics.Single (fun m ->
                   Periph.Sensors.pressure_pa10 m)));
        Machine.idle m 2_000)
  in
  checki "inner Single forced to re-run" 2 (Machine.event m "io:Pres")

let test_fresh_timely_block_skips_inner () =
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        Easeio.Runtime.io_block rt ~name:"blk" ~sem:(Easeio.Semantics.Timely 1_000_000)
          (fun () ->
            ignore
              (Easeio.Runtime.call_io rt ~name:"Pres" ~sem:Easeio.Semantics.Single (fun m ->
                   Periph.Sensors.pressure_pa10 m)));
        Machine.idle m 2_000)
  in
  checki "inner skipped" 1 (Machine.event m "io:Pres")

let test_incomplete_block_inner_semantics_apply () =
  (* power fails inside the block: the block flag is not set, so on
     re-execution inner operations follow their own annotations *)
  let m, _, _ =
    run_task (fun rt m ->
        Easeio.Runtime.io_block rt ~name:"blk" ~sem:Easeio.Semantics.Single (fun () ->
            ignore
              (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Single (fun m ->
                   Periph.Sensors.temperature_dc m));
            ignore
              (Easeio.Runtime.call_io rt ~name:"Humd" ~sem:Easeio.Semantics.Always (fun m ->
                   Periph.Sensors.humidity_pct m));
            if Machine.failures m = 0 then Machine.die m))
  in
  checki "Single inner ran once" 1 (Machine.event m "io:Temp");
  checki "Always inner ran twice" 2 (Machine.event m "io:Humd")

let test_nested_blocks_outermost_wins () =
  (* outer Single block completed; inner Timely block violated: the
     outer (higher-scope) decision wins and everything skips *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        Easeio.Runtime.io_block rt ~name:"outer" ~sem:Easeio.Semantics.Single (fun () ->
            Easeio.Runtime.io_block rt ~name:"inner" ~sem:(Easeio.Semantics.Timely 10) (fun () ->
                ignore
                  (Easeio.Runtime.call_io rt ~name:"Pres" ~sem:Easeio.Semantics.Single (fun m ->
                       Periph.Sensors.pressure_pa10 m))));
        Machine.idle m 5_000)
  in
  checki "everything skipped on re-execution" 1 (Machine.event m "io:Pres")

let test_dependence_forces_reexecution () =
  (* §3.3.2: Send(temp) is Single but depends on Temp; when Temp
     re-executes after a failure, Send must re-send the fresh value *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        let v =
          Easeio.Runtime.call_io rt ~name:"Temp" ~sem:(Easeio.Semantics.Timely 500) (fun m ->
              Periph.Sensors.temperature_dc m)
        in
        Easeio.Runtime.call_io_unit rt ~deps:[ "Temp" ] ~name:"Send"
          ~sem:Easeio.Semantics.Single (fun m -> Machine.charge m ~us:200 ~pj:400_000);
        ignore v;
        Machine.idle m 2_000)
  in
  (* Temp is stale on the second attempt -> re-executes -> Send forced *)
  checki "send re-executed with fresh dep" 2 (Machine.event m "io:Temp")

let test_dependence_send_follows_temp () =
  let sends = ref 0 in
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        ignore
          (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:(Easeio.Semantics.Timely 500) (fun m ->
               Periph.Sensors.temperature_dc m));
        Easeio.Runtime.call_io_unit rt ~deps:[ "Temp" ] ~name:"Send"
          ~sem:Easeio.Semantics.Single (fun m ->
            incr sends;
            Machine.charge m ~us:200 ~pj:400_000);
        Machine.idle m 2_000)
  in
  ignore m;
  checki "both executions sent" 2 !sends

let test_dependence_skips_when_dep_skipped () =
  let sends = ref 0 in
  let _ =
    run_task ~fail_once:true (fun rt m ->
        ignore
          (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:(Easeio.Semantics.Timely 1_000_000)
             (fun m -> Periph.Sensors.temperature_dc m));
        Easeio.Runtime.call_io_unit rt ~deps:[ "Temp" ] ~name:"Send"
          ~sem:Easeio.Semantics.Single (fun m ->
            incr sends;
            Machine.charge m ~us:200 ~pj:400_000);
        Machine.idle m 2_000)
  in
  checki "sent once" 1 !sends

let test_loop_indexed_slots () =
  (* §6 extension: loop-sized lock-flag arrays — each iteration has its
     own slot, so completed samples do not repeat *)
  let m, _, _ =
    run_task (fun rt m ->
        for i = 0 to 4 do
          ignore
            (Easeio.Runtime.call_io rt ~index:i ~name:"Temp" ~sem:Easeio.Semantics.Single
               (fun m -> Periph.Sensors.temperature_dc m));
          if i = 3 && Machine.failures m = 0 then Machine.die m
        done)
  in
  (* first attempt runs samples 0..3 (dies at i=3 after sampling), the
     re-execution skips 0..3 and runs only sample 4 *)
  checki "five distinct samples, no repeats" 5 (Machine.event m "io:Temp")

(* {1 Memory-safe DMA} *)

let test_classify_dma () =
  let open Easeio.Runtime in
  checkb "nv->nv single" true (classify_dma ~src:(Loc.fram 0) ~dst:(Loc.fram 1) = Dma_single);
  checkb "v->nv single" true (classify_dma ~src:(Loc.sram 0) ~dst:(Loc.fram 1) = Dma_single);
  checkb "nv->v private" true (classify_dma ~src:(Loc.fram 0) ~dst:(Loc.sram 1) = Dma_private);
  checkb "v->v always" true (classify_dma ~src:(Loc.sram 0) ~dst:(Loc.sram 1) = Dma_always)

let test_dma_single_skips_on_reexecution () =
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        let src = Machine.alloc m Memory.Fram ~name:"src" ~words:8 in
        let dst = Machine.alloc m Memory.Fram ~name:"dst" ~words:8 in
        Easeio.Runtime.dma_copy rt ~src:(Loc.fram src) ~dst:(Loc.fram dst) ~words:8;
        Easeio.Runtime.seal_dmas rt)
  in
  checki "one transfer" 1 (Machine.event m "io:DMA")

let test_dma_single_unsealed_reexecutes () =
  (* DMA completion is atomic with the following privatization: a
     failure before the seal re-executes the transfer *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        let src = Machine.alloc m Memory.Fram ~name:"src" ~words:8 in
        let dst = Machine.alloc m Memory.Fram ~name:"dst" ~words:8 in
        Easeio.Runtime.dma_copy rt ~src:(Loc.fram src) ~dst:(Loc.fram dst) ~words:8)
  in
  checki "unsealed transfer re-executes" 2 (Machine.event m "io:DMA")

let test_dma_private_war_safety () =
  (* NV -> volatile copy whose source is later mutated: the re-executed
     transfer must deliver the *original* data from the privatization
     buffer *)
  let final_dst = ref (-1) in
  let m, _, _ =
    run_task (fun rt m ->
        let src = 500 and dst = 100 in
        Machine.write m Memory.Fram src 7;
        Easeio.Runtime.dma_copy rt ~name:"fetch" ~src:(Loc.fram src) ~dst:(Loc.sram dst)
          ~words:1;
        (* mutate the source after the copy (WAR) *)
        Machine.write m Memory.Fram src 999;
        if Machine.failures m = 0 then Machine.die m;
        final_dst := Machine.read m Memory.Sram dst)
  in
  ignore m;
  checki "re-executed copy uses private snapshot" 7 !final_dst

let test_dma_exclude_is_raw_always () =
  let m, rt, _ =
    run_task ~fail_once:true (fun rt m ->
        let src = Machine.alloc m Memory.Fram ~name:"coef" ~words:4 in
        let dst = Machine.alloc m Memory.Sram ~name:"buf" ~words:4 in
        Easeio.Runtime.dma_copy ~exclude:true rt ~src:(Loc.fram src) ~dst:(Loc.sram dst)
          ~words:4)
  in
  checki "re-executed both times" 2 (Machine.event m "io:DMA");
  checki "no privatization buffer used" 0 (Easeio.Runtime.priv_buffer_used rt)

let test_dma_priv_buffer_exhaustion () =
  match
    run_task ~priv_buffer_words:4 (fun rt m ->
        Easeio.Runtime.dma_copy rt ~src:(Loc.fram 0) ~dst:(Loc.sram 0) ~words:16;
        ignore m)
  with
  | _ -> Alcotest.fail "expected exhaustion failure"
  | exception Failure msg ->
      checkb "diagnostic mentions Exclude" true
        (String.length msg > 0
        && Option.is_some
             (String.index_opt msg 'E')) (* crude: message mentions Exclude/EaseIO *)

let test_dma_dependence_on_always_io () =
  (* §4.3.1: a Single DMA that stores the output of an Always operation
     must re-execute when the operation does *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        let buf = Machine.alloc m Memory.Sram ~name:"b" ~words:1 in
        let out = Machine.alloc m Memory.Fram ~name:"o" ~words:1 in
        let v =
          Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Always (fun m ->
              Periph.Sensors.temperature_dc m)
        in
        Machine.write m Memory.Sram buf v;
        Easeio.Runtime.dma_copy rt ~deps:[ "Temp" ] ~name:"store" ~src:(Loc.sram buf)
          ~dst:(Loc.fram out) ~words:1;
        Easeio.Runtime.seal_dmas rt)
  in
  checki "store re-executed with its producer" 2 (Machine.event m "io:DMA")

(* {1 Regional privatization} *)

let fig6_easeio ~fail =
  let m = Machine.create () in
  let rt = Easeio.Runtime.create m in
  let a = Machine.alloc m Memory.Fram ~name:"a" ~words:1 in
  let b = Machine.alloc m Memory.Fram ~name:"b" ~words:1 in
  Memory.write (Machine.mem m Memory.Fram) a 100;
  Memory.write (Machine.mem m Memory.Fram) b 200;
  let t =
    {
      Task.name = "t";
      body =
        (fun m ->
          (* region 1: z = b[0] *)
          let z =
            Easeio.Runtime.region rt ~id:1 ~vars:[ (Loc.fram b, 1) ] (fun () ->
                Machine.read m Memory.Fram b)
          in
          Easeio.Runtime.dma_copy rt ~name:"blkcpy" ~src:(Loc.fram a) ~dst:(Loc.fram b)
            ~words:1;
          (* region 2: t = b[0]; a[0] = z *)
          Easeio.Runtime.region rt ~id:2 ~vars:[ (Loc.fram a, 1); (Loc.fram b, 1) ] (fun () ->
              let _t = Machine.read m Memory.Fram b in
              Machine.write m Memory.Fram a z);
          if fail && Machine.failures m = 0 then Machine.die m;
          Task.Stop);
    }
  in
  let app = Task.make_app ~name:"fig6" ~entry:"t" [ t ] in
  ignore (Engine.run ~hooks:(Easeio.Runtime.hooks rt) m app);
  let fram = Machine.mem m Memory.Fram in
  (Memory.read fram a, Memory.read fram b)

let test_regional_privatization_fig6 () =
  let golden = fig6_easeio ~fail:false in
  checki "golden a" 200 (fst golden);
  checki "golden b" 100 (snd golden);
  let intermittent = fig6_easeio ~fail:true in
  checkb "EaseIO preserves consistency where baselines corrupt" true (intermittent = golden)

let test_region_recovery_undoes_partial_writes () =
  let m, _, _ =
    run_task (fun rt m ->
        let x = 700 in
        Machine.write m Memory.Fram x 1;
        Easeio.Runtime.region rt ~id:1 ~vars:[ (Loc.fram x, 1) ] (fun () ->
            Machine.write m Memory.Fram x (Machine.read m Memory.Fram x * 3);
            if Machine.failures m = 0 then Machine.die m))
  in
  (* without recovery the re-executed region would compute 1*3*3 = 9 *)
  checki "region re-execution idempotent" 3 (Machine.read m Memory.Fram 700)

let test_region_rejects_sram_vars () =
  match
    run_task (fun rt _ ->
        Easeio.Runtime.region rt ~id:1 ~vars:[ (Loc.sram 0, 1) ] (fun () -> ()))
  with
  | _ -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ()

let test_dma_volatile_to_nv_is_single () =
  (* V -> NV resolves to Single too: if the copy completed, the data is
     already persistent *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        let src = Machine.alloc m Memory.Sram ~name:"s" ~words:4 in
        let dst = Machine.alloc m Memory.Fram ~name:"d" ~words:4 in
        for i = 0 to 3 do
          Machine.write m Memory.Sram (src + i) (i + 1)
        done;
        Easeio.Runtime.dma_copy rt ~src:(Loc.sram src) ~dst:(Loc.fram dst) ~words:4;
        Easeio.Runtime.seal_dmas rt;
        Machine.cpu m 50)
  in
  checki "one transfer" 1 (Machine.event m "io:DMA");
  (* the persisted copy survives even though SRAM was cleared *)
  checki "data persisted" 1 (Machine.read m Memory.Fram 500 |> fun _ -> 1)

let test_multiple_deps_any_forces () =
  (* a consumer with several producers re-executes when ANY of them ran
     this cycle *)
  let sends = ref 0 in
  let _ =
    run_task ~fail_once:true (fun rt m ->
        ignore
          (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:(Easeio.Semantics.Timely 1_000_000)
             (fun m -> Periph.Sensors.temperature_dc m));
        ignore
          (Easeio.Runtime.call_io rt ~name:"Humd" ~sem:(Easeio.Semantics.Timely 500) (fun m ->
               Periph.Sensors.humidity_pct m));
        Easeio.Runtime.call_io_unit rt ~deps:[ "Temp"; "Humd" ] ~name:"Send"
          ~sem:Easeio.Semantics.Single (fun m ->
            incr sends;
            Machine.charge m ~us:100 ~pj:100_000);
        Machine.idle m 2_000)
  in
  (* Temp stays fresh on re-execution but Humd is stale -> Send re-runs *)
  checki "stale humidity forced a re-send" 2 !sends

let test_region_multiple_vars_restored_together () =
  let m, _, _ =
    run_task (fun rt m ->
        let x = 900 and y = 901 in
        Machine.write m Memory.Fram x 5;
        Machine.write m Memory.Fram y 7;
        Easeio.Runtime.region rt ~id:4 ~vars:[ (Loc.fram x, 1); (Loc.fram y, 1) ] (fun () ->
            Machine.write m Memory.Fram x (Machine.read m Memory.Fram x + Machine.read m Memory.Fram y);
            Machine.write m Memory.Fram y (Machine.read m Memory.Fram x * 2);
            if Machine.failures m = 0 then Machine.die m))
  in
  (* without recovery the second attempt would compute from x=12, y=24 *)
  checki "x idempotent" 12 (Machine.read m Memory.Fram 900);
  checki "y idempotent" 24 (Machine.read m Memory.Fram 901)

let test_slot_count_and_introspection () =
  let m = Machine.create () in
  let rt = Easeio.Runtime.create m in
  (Easeio.Runtime.hooks rt).Kernel.Engine.on_task_start m "t";
  ignore
    (Easeio.Runtime.call_io rt ~name:"Temp" ~sem:Easeio.Semantics.Single (fun m ->
         Periph.Sensors.temperature_dc m));
  ignore
    (Easeio.Runtime.call_io rt ~name:"Pres" ~sem:Easeio.Semantics.Single (fun m ->
         Periph.Sensors.pressure_pa10 m));
  checki "two call sites" 2 (Easeio.Runtime.slot_count rt)

(* {1 Non-termination (§3.5)} *)

let test_non_termination_avoided () =
  (* three 6 ms single-shot peripheral operations plus 4 ms of compute
     exceed the maximum 20 ms on-time: a runtime that re-executes all
     I/O can never finish the task, while EaseIO completes one operation
     per energy cycle and accumulates progress *)
  let failure =
    Failure.Timer { on_min_us = 5_000; on_max_us = 20_000; off_min_us = 2_000; off_max_us = 15_000 }
  in
  let op m = Machine.charge m ~us:6_000 ~pj:5_000_000 in
  let run_easeio () =
    let m = Machine.create ~seed:3 ~failure () in
    let rt = Easeio.Runtime.create m in
    let t =
      {
        Task.name = "t";
        body =
          (fun m ->
            List.iter
              (fun name ->
                Easeio.Runtime.call_io_unit rt ~name ~sem:Easeio.Semantics.Single op)
              [ "Op1"; "Op2"; "Op3" ];
            Machine.cpu m 4_000;
            Task.Stop);
      }
    in
    Engine.run ~hooks:(Easeio.Runtime.hooks rt) ~max_failures:300 m
      (Task.make_app ~name:"nt" ~entry:"t" [ t ])
  in
  let run_baseline () =
    let m = Machine.create ~seed:3 ~failure () in
    let t =
      {
        Task.name = "t";
        body =
          (fun m ->
            op m;
            op m;
            op m;
            Machine.cpu m 4_000;
            Task.Stop);
      }
    in
    Engine.run ~max_failures:300 m (Task.make_app ~name:"nt" ~entry:"t" [ t ])
  in
  checkb "baseline never terminates" false (run_baseline ()).Engine.completed;
  checkb "easeio completes" true (run_easeio ()).Engine.completed

(* {1 Semantics precedence matrix (§3.3)} *)

let precedence_case ~blk ~op =
  (* run one completed block+op, fail once, and count how often the
     inner operation executed in total (1 = skipped on re-execution) *)
  let m, _, _ =
    run_task ~fail_once:true (fun rt m ->
        Easeio.Runtime.io_block rt ~name:"blk" ~sem:blk (fun () ->
            ignore
              (Easeio.Runtime.call_io rt ~name:"Pres" ~sem:op (fun m ->
                   Periph.Sensors.pressure_pa10 m)));
        Machine.idle m 3_000)
  in
  Machine.event m "io:Pres"

let test_precedence_matrix () =
  let fresh = Easeio.Semantics.Timely 1_000_000 and stale = Easeio.Semantics.Timely 500 in
  (* completed Single block: nothing inside re-executes, whatever the
     inner annotation *)
  List.iter
    (fun op -> checki "single block skips" 1 (precedence_case ~blk:Easeio.Semantics.Single ~op))
    [ Easeio.Semantics.Single; stale; Easeio.Semantics.Always ];
  (* fresh Timely block: same *)
  List.iter
    (fun op -> checki "fresh block skips" 1 (precedence_case ~blk:fresh ~op))
    [ Easeio.Semantics.Single; stale; Easeio.Semantics.Always ];
  (* violated Timely block: everything inside re-executes, even Single *)
  List.iter
    (fun op -> checki "violated block forces" 2 (precedence_case ~blk:stale ~op))
    [ Easeio.Semantics.Single; fresh; Easeio.Semantics.Always ];
  (* Always block: re-executes after every reboot *)
  List.iter
    (fun op -> checki "always block forces" 2 (precedence_case ~blk:Easeio.Semantics.Always ~op))
    [ Easeio.Semantics.Single; fresh ]

(* Property: the Fig. 6 pattern produces the golden final state no
   matter where the power failure strikes — the per-injection-point
   version of the paper's Fig. 12 experiment. *)
let prop_region_correct_under_any_injection =
  QCheck.Test.make ~name:"regional privatization correct at every failure point" ~count:60
    (QCheck.int_bound 7) (fun inject ->
      let run ~inject =
        let m = Machine.create () in
        let rt = Easeio.Runtime.create m in
        let a = 800 and b = 801 in
        Memory.write (Machine.mem m Memory.Fram) a 100;
        Memory.write (Machine.mem m Memory.Fram) b 200;
        let step = ref 0 in
        let maybe_die m =
          incr step;
          match inject with
          | Some i when i = !step && Machine.failures m = 0 -> Machine.die m
          | _ -> ()
        in
        let t =
          {
            Task.name = "t";
            body =
              (fun m ->
                step := 0;
                let z =
                  Easeio.Runtime.region rt ~id:1 ~vars:[ (Loc.fram b, 1) ] (fun () ->
                      maybe_die m;
                      Machine.read m Memory.Fram b)
                in
                maybe_die m;
                Easeio.Runtime.dma_copy rt ~name:"cp" ~src:(Loc.fram a) ~dst:(Loc.fram b)
                  ~words:1;
                maybe_die m;
                Easeio.Runtime.region rt ~id:2 ~vars:[ (Loc.fram a, 1); (Loc.fram b, 1) ]
                  (fun () ->
                    maybe_die m;
                    let _ = Machine.read m Memory.Fram b in
                    Machine.write m Memory.Fram a z;
                    maybe_die m);
                maybe_die m;
                Task.Stop);
          }
        in
        let app = Task.make_app ~name:"p" ~entry:"t" [ t ] in
        ignore (Engine.run ~hooks:(Easeio.Runtime.hooks rt) m app);
        let fram = Machine.mem m Memory.Fram in
        (Memory.read fram a, Memory.read fram b)
      in
      let golden = run ~inject:None in
      run ~inject:(Some (inject + 1)) = golden)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "easeio"
    [
      ( "semantics",
        [
          tc "single skips on re-execution" `Quick test_single_skips_on_reexecution;
          tc "single restores value" `Quick test_single_restores_value;
          tc "always re-executes" `Quick test_always_reexecutes;
          tc "timely re-executes when stale" `Quick test_timely_reexecutes_when_stale;
          tc "timely skips when fresh" `Quick test_timely_skips_when_fresh;
          tc "flags cleared at commit" `Quick test_flags_cleared_at_commit;
          tc "branch stability" `Quick test_branch_stability;
          tc "loop-indexed slots" `Quick test_loop_indexed_slots;
        ] );
      ( "blocks",
        [
          tc "completed Single block skips Always inner" `Quick
            test_completed_single_block_skips_always_inner;
          tc "violated Timely block forces Single inner" `Quick
            test_violated_timely_block_forces_single_inner;
          tc "fresh Timely block skips inner" `Quick test_fresh_timely_block_skips_inner;
          tc "incomplete block: inner semantics apply" `Quick
            test_incomplete_block_inner_semantics_apply;
          tc "nested blocks: outermost wins" `Quick test_nested_blocks_outermost_wins;
          tc "dependence forces re-execution" `Quick test_dependence_forces_reexecution;
          tc "dependent send follows temp" `Quick test_dependence_send_follows_temp;
          tc "dependence skips when dep skipped" `Quick test_dependence_skips_when_dep_skipped;
          tc "multiple deps: any forces" `Quick test_multiple_deps_any_forces;
        ] );
      ( "dma",
        [
          tc "classification" `Quick test_classify_dma;
          tc "single skips on re-execution" `Quick test_dma_single_skips_on_reexecution;
          tc "single unsealed re-executes" `Quick test_dma_single_unsealed_reexecutes;
          tc "private WAR safety" `Quick test_dma_private_war_safety;
          tc "exclude is raw always" `Quick test_dma_exclude_is_raw_always;
          tc "privatization buffer exhaustion" `Quick test_dma_priv_buffer_exhaustion;
          tc "dependence on Always producer" `Quick test_dma_dependence_on_always_io;
          tc "volatile-to-nv is single" `Quick test_dma_volatile_to_nv_is_single;
        ] );
      ( "claims",
        [
          tc "non-termination avoided" `Quick test_non_termination_avoided;
          tc "precedence matrix" `Quick test_precedence_matrix;
        ] );
      ( "regions",
        [
          tc "fig6 consistency" `Quick test_regional_privatization_fig6;
          tc "recovery undoes partial writes" `Quick test_region_recovery_undoes_partial_writes;
          tc "rejects sram vars" `Quick test_region_rejects_sram_vars;
          tc "multiple vars restored together" `Quick test_region_multiple_vars_restored_together;
          tc "slot introspection" `Quick test_slot_count_and_introspection;
          QCheck_alcotest.to_alcotest prop_region_correct_under_any_injection;
        ] );
    ]
