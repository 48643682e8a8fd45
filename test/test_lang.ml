(* Tests for the task language: parser, analyses, the EaseIO compiler
   front-end, the interpreter under all policies. *)

open Platform
open Lang

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* substring search for transformed-code assertions *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {1 Parser} *)

let test_parse_expr () =
  let e = Parser.expr "1 + 2 * x" in
  checks "precedence" "1 + (2 * x)" (Pretty.expr_to_string e);
  let e = Parser.expr "a && b || !c" in
  checks "logic" "(a && b) || (!c)" (Pretty.expr_to_string e)

let fig2c_src =
  {|
program sense;
nv int stdy;
nv int alarm;
task sense {
  int temp;
  temp = call_io(Temp, Always);
  if (temp < 100) { stdy = 1; } else { alarm = 1; }
  stop;
}
|}

let test_parse_program () =
  let p = Parser.program fig2c_src in
  checks "name" "sense" p.Ast.p_name;
  checki "globals" 2 (List.length p.Ast.p_globals);
  checki "tasks" 1 (List.length p.Ast.p_tasks);
  checks "entry" "sense" p.Ast.p_entry

let test_parse_time_suffixes () =
  let p =
    Parser.program
      {|
program t;
task a {
  int x;
  x = call_io(Temp, Timely, 10ms);
  stop;
}
|}
  in
  match List.map (fun st -> st.Ast.s) (List.hd p.Ast.p_tasks).Ast.t_body with
  | [ Ast.Call_io { sem = Easeio.Semantics.Timely 10_000; _ }; Ast.Stop ] -> ()
  | _ -> Alcotest.fail "expected Timely 10ms = 10000us"

let test_parse_errors () =
  let expect_err src =
    match Parser.program src with
    | _ -> Alcotest.fail "expected parse error"
    | exception Parser.Error _ -> ()
    | exception Ast.Error _ -> ()
  in
  expect_err "program p; task t { next missing; }";
  expect_err "program p; nv int x; nv int x; task t { stop; }";
  expect_err "program p; vol int v = 3; task t { stop; }";
  expect_err "program p;";
  expect_err "program p; task t { x = ; }"

let test_roundtrip_through_printer () =
  let p = Parser.program fig2c_src in
  let printed = Pretty.program_to_string p in
  let p2 = Parser.program printed in
  checks "stable print" printed (Pretty.program_to_string p2)

(* Property: parse (print e) structurally equals e for random
   expressions — the printer and parser agree on precedence. *)
let expr_gen =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "buf" ] in
  let binop =
    oneofl
      Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]
  in
  fix
    (fun self depth ->
      if depth = 0 then
        oneof [ map (fun n -> Ast.Int n) (int_range 0 999); map (fun v -> Ast.Var v) var ]
      else
        frequency
          [
            (2, map (fun n -> Ast.Int n) (int_range 0 999));
            (2, map (fun v -> Ast.Var v) var);
            (1, map2 (fun a i -> Ast.Index (a, i)) var (self (depth - 1)));
            (1, map (fun e -> Ast.Unop (Ast.Not, e)) (self (depth - 1)));
            (3, map3 (fun op a b -> Ast.Binop (op, a, b)) binop (self (depth - 1)) (self (depth - 1)));
          ])
    4

let prop_printer_parser_roundtrip =
  QCheck.Test.make ~name:"printer/parser expression roundtrip" ~count:300
    (QCheck.make ~print:Pretty.expr_to_string expr_gen)
    (fun e -> Parser.expr (Pretty.expr_to_string e) = e)

(* {1 Analysis} *)

let fig6_src =
  {|
program fig6;
nv int a[4];
nv int b[4];
task t1 {
  int z;
  int tt;
  z = b[0];
  dma_copy(a[0], b[0], 4);
  tt = b[0];
  a[0] = z;
  stop;
}
|}

let test_war_analysis () =
  let p = Parser.program fig6_src in
  let t = List.hd p.Ast.p_tasks in
  (* CPU reads b, writes a: no single variable is both CPU-read and
     CPU-written, so the baselines privatize nothing *)
  Alcotest.(check (list string)) "no cpu WAR vars" [] (Analysis.war_vars p t)

let test_war_detects_cpu_war () =
  let p =
    Parser.program
      {|
program w;
nv int x;
task t { x = x + 1; stop; }
|}
  in
  Alcotest.(check (list string)) "x has WAR" [ "x" ]
    (Analysis.war_vars p (List.hd p.Ast.p_tasks))

let test_region_split () =
  let p = Parser.program fig6_src in
  let regions = Analysis.split_regions (List.hd p.Ast.p_tasks) in
  checki "N+1 regions" 2 (List.length regions);
  (match regions with
  | [ (r1, Some _); (r2, None) ] ->
      checki "region 1 stmts" 1 (List.length r1);
      checki "region 2 stmts" 3 (List.length r2)
  | _ -> Alcotest.fail "expected [r1, dma; r2]")

let test_check_supported_rejects () =
  let reject src =
    let p = Parser.program src in
    match Analysis.check_supported p with
    | () -> Alcotest.fail "expected rejection"
    | exception Ast.Error _ -> ()
  in
  reject
    {|
program bad;
nv int n;
task t { int x; while (x < n) { x = call_io(Temp, Single); } stop; }
|};
  reject
    {|
program bad;
nv int n;
task t { int x; for i = 0 to n { x = call_io(Temp, Single); } stop; }
|};
  reject
    {|
program bad;
task t { for i = 0 to 3 { for j = 0 to 3 { call_io(Temp, Single); } } stop; }
|};
  reject {|
program bad;
nv int a[4];
vol int v[4];
task t { if (1) { dma_copy(a[0], v[0], 4); } stop; }
|}

let test_always_in_loop_supported () =
  let p =
    Parser.program
      {|
program ok;
task t { for i = 0 to 3 { call_io(Temp, Always); } stop; }
|}
  in
  Analysis.check_supported p

let test_static_loop_single_supported () =
  (* §6 extension: annotated I/O in a statically bounded for loop *)
  let p =
    Parser.program
      {|
program ok;
nv int log[4];
task t { int s; for i = 0 to 3 { s = call_io(Temp, Single); log[i] = s; } stop; }
|}
  in
  Analysis.check_supported p

(* {1 Transform} *)

let transform src = Transform.apply (Parser.program src)

let test_transform_inserts_lock_flags () =
  let r =
    transform
      {|
program p;
task sense { int temp; temp = call_io(Temp, Single); stop; }
|}
  in
  let names = List.map (fun d -> d.Ast.v_name) r.Transform.prog.Ast.p_globals in
  checkb "lock flag declared" true (List.mem "__lock_Temp_sense_0" names);
  checkb "private copy declared" true (List.mem "__priv_Temp_sense_0" names);
  let printed = Pretty.program_to_string r.Transform.prog in
  checkb "guard present" true
    (contains printed "if (__lock_Temp_sense_0 == 0");
  checkb "restore present" true (contains printed "temp = __priv_Temp_sense_0;")

let test_transform_timely_uses_clock () =
  let r =
    transform
      {|
program p;
task sense { int temp; temp = call_io(Temp, Timely, 10ms); stop; }
|}
  in
  let printed = Pretty.program_to_string r.Transform.prog in
  checkb "staleness check" true (contains printed "get_time() - __time_Temp_sense_0) > 10000");
  checkb "timestamping" true (contains printed "__time_Temp_sense_0 = get_time();")

let test_transform_regions_and_seal () =
  let r = transform fig6_src in
  let printed = Pretty.program_to_string r.Transform.prog in
  checkb "region flag" true (contains printed "__region_t1_0 == 0");
  checkb "privatization memcpy" true (contains printed "memcpy(__rp_t1_");
  checkb "seal after region" true (contains printed "__seal_pending_dma();")

let test_transform_clear_flags_per_task () =
  let r = transform fig6_src in
  match r.Transform.clear_flags with
  | [ ("t1", flags) ] -> checkb "has region flags" true (List.length flags >= 1)
  | _ -> Alcotest.fail "one task expected"

let test_transform_dependence_marks_dma () =
  let r =
    transform
      {|
program p;
nv int out[2];
vol int buf[2];
task t {
  int v;
  v = call_io(Temp, Always);
  buf[0] = v;
  dma_copy(buf[0], out[0], 1);
  stop;
}
|}
  in
  let has_dep = ref false in
  List.iter
    (fun (t : Ast.task) ->
      Ast.iter_stmts
        (fun st ->
          match st.Ast.s with
          | Ast.Dma { dma_deps = _ :: _; _ } -> has_dep := true
          | _ -> ())
        t.Ast.t_body)
    r.Transform.prog.Ast.p_tasks;
  checkb "dma inherits dependence on Temp" true !has_dep

let test_transform_priv_buffer_check () =
  let src =
    {|
program p;
nv int big[4000];
vol int dst[4000];
task t { dma_copy(big[0], dst[0], 4000); stop; }
|}
  in
  match Transform.apply ~priv_buffer_words:2048 (Parser.program src) with
  | _ -> Alcotest.fail "expected overflow diagnostic"
  | exception Ast.Error msg ->
      checkb "mentions exclude" true (contains msg "dma_copy_exclude")

let test_transform_exclude_skips_demand () =
  let src =
    {|
program p;
nv int big[4000];
vol int dst[4000];
task t { dma_copy_exclude(big[0], dst[0], 4000); stop; }
|}
  in
  let r = Transform.apply ~priv_buffer_words:2048 (Parser.program src) in
  checki "no demand" 0 r.Transform.priv_demand_words

let test_transform_loop_indexed_arrays () =
  let r =
    transform
      {|
program p;
nv int log[4];
task grab { int s; for i = 0 to 3 { s = call_io(Temp, Single); log[i] = s; } stop; }
|}
  in
  let decls = r.Transform.prog.Ast.p_globals in
  (match List.find_opt (fun d -> d.Ast.v_name = "__lock_Temp_grab_0") decls with
  | Some d -> checki "lock is a 4-element array" 4 d.Ast.v_words
  | None -> Alcotest.fail "loop lock array not declared");
  let printed = Pretty.program_to_string r.Transform.prog in
  checkb "indexed guard" true (contains printed "__lock_Temp_grab_0[i - 0] == 0")

let test_transform_ablate_semantics () =
  let r =
    Transform.apply ~ablate_semantics:true
      (Parser.program
         {|
program p;
nv int out[2];
vol int v[2];
task t { int x; x = call_io(Temp, Single); dma_copy(out[0], v[0], 2); stop; }
|})
  in
  let printed = Pretty.program_to_string r.Transform.prog in
  checkb "no lock guards left" true (not (contains printed "__lock_Temp"));
  checkb "dma excluded" true (contains printed "dma_copy_exclude");
  checki "no privatization demand" 0 r.Transform.priv_demand_words

let test_transform_ablate_regions () =
  let r = Transform.apply ~ablate_regions:true (Parser.program fig6_src) in
  let printed = Pretty.program_to_string r.Transform.prog in
  checkb "no region flags" true (not (contains printed "__region_"));
  checkb "seal follows dma directly" true (contains printed "__seal_pending_dma();")

(* {1 Interpreter} *)

let run_src ?(policy = Interp.Easeio) ?seed ?failure src =
  let m = Machine.create ?seed ?failure () in
  let t = Interp.build ~policy m (Parser.program src) in
  let o = Interp.run t in
  (t, o)

let test_interp_basic_compute () =
  let t, o =
    run_src ~policy:Interp.Plain
      {|
program p;
nv int out;
task t1 {
  int acc;
  acc = 0;
  for i = 1 to 10 { acc = acc + i; }
  out = acc;
  next t2;
}
task t2 { out = out * 2; stop; }
|}
  in
  checkb "completed" true o.Kernel.Engine.completed;
  checki "sum doubled" 110 (Interp.read_global t "out" 0)

let test_interp_arrays_and_while () =
  let t, _ =
    run_src ~policy:Interp.Plain
      {|
program p;
nv int buf[8];
nv int n;
task t1 {
  int i;
  i = 0;
  while (i < 8) { buf[i] = i * i; i = i + 1; }
  n = buf[7];
  stop;
}
|}
  in
  checki "n = 49" 49 (Interp.read_global t "n" 0)

let test_interp_io_and_radio () =
  let t, _ =
    run_src ~policy:Interp.Plain
      {|
program p;
task t1 {
  int v;
  v = call_io(Temp, Always);
  call_io(Send, Single, v, 7);
  stop;
}
|}
  in
  checki "one packet" 1 (Periph.Radio.packets_sent (Interp.radio t));
  match Periph.Radio.log (Interp.radio t) with
  | [ (_, payload) ] ->
      checki "payload length" 2 (Array.length payload);
      checki "second word" 7 payload.(1)
  | _ -> Alcotest.fail "expected one packet"

let test_interp_lea_fir () =
  let t, _ =
    run_src ~policy:Interp.Plain
      {|
program p;
nv int input[8] = {1, 1, 1, 1, 1, 1, 1, 1};
nv int coefs[3] = {1, 2, 3};
nv int result[6];
vol int li[8];
vol int lc[3];
vol int lo[6];
task t1 {
  dma_copy(input[0], li[0], 8);
  dma_copy(coefs[0], lc[0], 3);
  call_io(Lea_fir, Always, li, lc, 3, lo, 6);
  dma_copy(lo[0], result[0], 6);
  stop;
}
|}
  in
  for i = 0 to 5 do
    checki "moving sum" 6 (Interp.read_global t "result" i)
  done

(* The Fig. 6 experiment end-to-end at language level: a power failure at
   the end of the task corrupts state under every baseline but not under
   EaseIO. "Die" is a test-only peripheral that fails on first attempt. *)
let die_io : string * Interp.io_impl =
  ( "Die",
    fun m _ ->
      if Machine.failures m = 0 then Machine.die m;
      0 )

let fig6_with_die =
  {|
program fig6;
nv int a[1];
nv int b[1];
task t1 {
  int z;
  int tt;
  z = b[0];
  dma_copy(a[0], b[0], 1);
  tt = b[0];
  a[0] = z;
  call_io(Die, Always);
  stop;
}
|}

let run_fig6 policy ~fail =
  let m = Machine.create () in
  let prog = Parser.program fig6_with_die in
  let t =
    Interp.build ~policy
      ~extra_io:(if fail then [ die_io ] else [ ("Die", fun _ _ -> 0) ])
      m prog
  in
  (* preload a=100, b=200 *)
  let la = Interp.global_loc t "a" and lb = Interp.global_loc t "b" in
  Memory.write (Machine.mem m Memory.Fram) la.Loc.addr 100;
  Memory.write (Machine.mem m Memory.Fram) lb.Loc.addr 200;
  let o = Interp.run t in
  checkb "completed" true o.Kernel.Engine.completed;
  (Interp.read_global t "a" 0, Interp.read_global t "b" 0)

let test_interp_fig6_baselines_corrupt () =
  List.iter
    (fun policy ->
      let golden = run_fig6 policy ~fail:false in
      Alcotest.(check (pair int int)) "golden" (200, 100) golden;
      let intermittent = run_fig6 policy ~fail:true in
      checkb (Interp.policy_name policy ^ " corrupts") true (intermittent <> golden))
    [ Interp.Plain; Interp.Alpaca; Interp.Ink ]

let test_interp_fig6_easeio_correct () =
  let golden = run_fig6 Interp.Easeio ~fail:false in
  Alcotest.(check (pair int int)) "golden" (200, 100) golden;
  let intermittent = run_fig6 Interp.Easeio ~fail:true in
  Alcotest.(check (pair int int)) "EaseIO consistent" golden intermittent

let test_interp_easeio_skips_single () =
  let m = Machine.create () in
  let prog =
    Parser.program
      {|
program p;
nv int out;
task t1 {
  int v;
  v = call_io(Temp, Single);
  out = v;
  call_io(Die, Always);
  stop;
}
|}
  in
  let t = Interp.build ~extra_io:[ die_io ] m prog in
  let o = Interp.run t in
  checkb "completed" true o.Kernel.Engine.completed;
  checki "sensor ran once despite re-execution" 1 (Machine.event m "io:Temp");
  checki "one failure" 1 o.Kernel.Engine.power_failures

let test_interp_baselines_reexecute_io () =
  let m = Machine.create () in
  let prog =
    Parser.program
      {|
program p;
task t1 { int v; v = call_io(Temp, Single); call_io(Die, Always); stop; }
|}
  in
  let t = Interp.build ~policy:Interp.Alpaca ~extra_io:[ die_io ] m prog in
  ignore (Interp.run t);
  checki "baseline re-reads regardless of annotation" 2 (Machine.event m "io:Temp")

let test_interp_easeio_branch_stability () =
  (* Fig. 2c: the branch must not flip across re-execution *)
  let m = Machine.create ~seed:33 () in
  let prog =
    Parser.program
      {|
program p;
nv int stdy;
nv int alarm;
task sense {
  int temp;
  temp = call_io(Temp, Single);
  if (temp < 100) { stdy = 1; } else { alarm = 1; }
  call_io(Die, Always);
  stop;
}
|}
  in
  let t = Interp.build ~extra_io:[ die_io ] m prog in
  ignore (Interp.run t);
  checki "exactly one flag set" 1 (Interp.read_global t "stdy" 0 + Interp.read_global t "alarm" 0)

let test_interp_timely_block_fig3 () =
  (* Fig. 3: temp@Timely,10ms + humd@Always inside a Single block *)
  let m = Machine.create () in
  let prog =
    Parser.program
      {|
program p;
nv int t_out;
nv int h_out;
task sense {
  int temp;
  int humd;
  io_block(Single) {
    temp = call_io(Temp, Timely, 10ms);
    humd = call_io(Humd, Always);
  }
  t_out = temp;
  h_out = humd;
  call_io(Die, Always);
  stop;
}
|}
  in
  let t = Interp.build ~extra_io:[ die_io ] m prog in
  let o = Interp.run t in
  checkb "completed" true o.Kernel.Engine.completed;
  (* block completed before the failure: nothing re-executes *)
  checki "temp once" 1 (Machine.event m "io:Temp");
  checki "humd once (Always overridden by completed Single block)" 1 (Machine.event m "io:Humd");
  checkb "outputs restored" true
    (Interp.read_global t "t_out" 0 <> 0 && Interp.read_global t "h_out" 0 <> 0)

let test_interp_under_timer_failures_matches_golden () =
  (* end-to-end: EaseIO under the paper's timer-failure emulation
     produces the same final state as continuous power *)
  let build failure seed =
    let m = Machine.create ~seed ~failure () in
    let t = Interp.build m (Parser.program fig6_src) in
    let la = Interp.global_loc t "a" and lb = Interp.global_loc t "b" in
    for i = 0 to 3 do
      Memory.write (Machine.mem m Memory.Fram) (la.Loc.addr + i) (100 + i);
      Memory.write (Machine.mem m Memory.Fram) (lb.Loc.addr + i) (200 + i)
    done;
    let o = Interp.run t in
    checkb "completed" true o.Kernel.Engine.completed;
    List.concat_map (fun n -> List.init 4 (Interp.read_global t n)) [ "a"; "b" ]
  in
  let golden = build Failure.No_failures 1 in
  for seed = 1 to 20 do
    let intermittent =
      build
        (Failure.Timer { on_min_us = 40; on_max_us = 120; off_min_us = 5; off_max_us = 30 })
        seed
    in
    Alcotest.(check (list int)) (Printf.sprintf "seed %d" seed) golden intermittent
  done

let test_interp_loop_indexed_no_repeats () =
  (* four Single samples in a loop; a failure mid-loop resumes without
     re-reading completed iterations *)
  let m = Machine.create () in
  let prog =
    Parser.program
      {|
program p;
nv int log[6];
task grab {
  int s;
  for i = 0 to 5 {
    s = call_io(Temp, Single);
    log[i] = s;
    if (i == 3) { call_io(Die, Always); }
  }
  stop;
}
|}
  in
  let t = Interp.build ~extra_io:[ die_io ] m prog in
  let o = Interp.run t in
  checkb "completed" true o.Kernel.Engine.completed;
  checki "six samples, no repeats" 6 (Machine.event m "io:Temp");
  for i = 0 to 5 do
    checkb (Printf.sprintf "log[%d] populated" i) true (Interp.read_global t "log" i > 0)
  done

let test_interp_loop_flags_clear_between_instances () =
  (* a second execution instance of the same task must re-sample *)
  let m = Machine.create () in
  let prog =
    Parser.program
      {|
program p;
nv int log[3];
nv int round;
task grab {
  int s;
  for i = 0 to 2 { s = call_io(Temp, Single); log[i] = s; }
  round = round + 1;
  if (round < 2) { next grab; }
  stop;
}
|}
  in
  let t = Interp.build m prog in
  ignore (Interp.run t);
  checki "three samples per instance" 6 (Machine.event m "io:Temp")

let test_interp_ablate_regions_corrupts () =
  (* without regional privatization the Fig. 6 pattern corrupts again,
     demonstrating why §4.4 is load-bearing *)
  let run ~ablate =
    let m = Machine.create () in
    let prog = Parser.program fig6_with_die in
    let t = Interp.build ~ablate_regions:ablate ~extra_io:[ die_io ] m prog in
    let la = Interp.global_loc t "a" and lb = Interp.global_loc t "b" in
    Memory.write (Machine.mem m Memory.Fram) la.Loc.addr 100;
    Memory.write (Machine.mem m Memory.Fram) lb.Loc.addr 200;
    ignore (Interp.run t);
    (Interp.read_global t "a" 0, Interp.read_global t "b" 0)
  in
  Alcotest.(check (pair int int)) "full easeio correct" (200, 100) (run ~ablate:false);
  checkb "ablated easeio corrupts" true (run ~ablate:true <> (200, 100))

let test_interp_ablate_semantics_reexecutes () =
  let m = Machine.create () in
  let prog =
    Parser.program
      {|
program p;
task t1 { int v; v = call_io(Temp, Single); call_io(Die, Always); stop; }
|}
  in
  let t = Interp.build ~ablate_semantics:true ~extra_io:[ die_io ] m prog in
  ignore (Interp.run t);
  checki "semantics ablated: re-reads like a baseline" 2 (Machine.event m "io:Temp")

(* the .eio programs shipped under examples/programs must keep parsing,
   transforming and running correctly under every policy *)
let test_shipped_programs () =
  List.iter
    (fun path ->
      let ic = open_in path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let prog = Parser.program src in
      ignore (Transform.apply prog);
      List.iter
        (fun policy ->
          let m = Machine.create ~seed:5 ~failure:Failure.paper_timer () in
          let t = Interp.build ~policy m prog in
          let o = Interp.run t in
          checkb
            (Printf.sprintf "%s under %s completes" path (Interp.policy_name policy))
            true o.Kernel.Engine.completed)
        [ Interp.Alpaca; Interp.Ink; Interp.Easeio ])
    [ "../examples/programs/greenhouse.eio"; "../examples/programs/motion_log.eio" ]

let test_footprint_ordering () =
  (* EaseIO must carry more FRAM metadata than Alpaca for the same program *)
  let measure policy =
    let m = Machine.create () in
    let t = Interp.build ~policy m (Parser.program fig6_src) in
    Footprint.measure t
  in
  let a = measure Interp.Alpaca and e = measure Interp.Easeio in
  checkb "easeio runtime fram > alpaca" true
    (e.Footprint.fram_runtime_bytes > a.Footprint.fram_runtime_bytes);
  checkb "text positive" true (a.Footprint.text_bytes > 0)

let prop_easeio_always_matches_golden =
  QCheck.Test.make ~name:"easeio matches golden state under random failure timers" ~count:25
    QCheck.(pair small_int (int_range 30 200))
    (fun (seed, on_min) ->
      let src =
        {|
program rnd;
nv int a[4];
nv int b[4];
nv int out;
task t1 {
  int z;
  z = b[1] + a[2];
  dma_copy(a[0], b[0], 4);
  a[1] = z;
  next t2;
}
task t2 {
  out = a[1] + b[2];
  stop;
}
|}
      in
      let build failure =
        let m = Machine.create ~seed:(seed + 1) ~failure () in
        let t = Interp.build m (Parser.program src) in
        let la = Interp.global_loc t "a" and lb = Interp.global_loc t "b" in
        for i = 0 to 3 do
          Memory.write (Machine.mem m Memory.Fram) (la.Loc.addr + i) (10 + i);
          Memory.write (Machine.mem m Memory.Fram) (lb.Loc.addr + i) (20 + i)
        done;
        let o = Interp.run t in
        (o.Kernel.Engine.completed, Interp.read_global t "out" 0)
      in
      let golden = build Failure.No_failures in
      let test =
        build (Failure.Timer { on_min_us = on_min; on_max_us = on_min * 3; off_min_us = 3; off_max_us = 20 })
      in
      golden = test)

(* {1 Diagnostics and the staged pass pipeline} *)

let codes ds = List.map (fun d -> d.Diagnostics.code) ds

let test_resolve_collects_all () =
  (* one program, four distinct problems: the pipeline must report every
     one of them, not stop at the first *)
  let p =
    Parser.parse
      {|
program p;
nv int a;
nv int a;
task t {
  x = missing[2];
  call_io(Delay, Single);
  next nowhere;
}
|}
  in
  let ds = Analysis.resolve p in
  let cs = codes ds in
  checkb "dup global E0103" true (List.mem "E0103" cs);
  checkb "unknown next E0102" true (List.mem "E0102" cs);
  checkb "undeclared array E0106" true (List.mem "E0106" cs);
  checkb "bad arity E0107" true (List.mem "E0107" cs);
  checkb "all spans located" true
    (List.for_all (fun d -> not (Span.is_ghost d.Diagnostics.span)) ds)

let test_supported_collects_all () =
  let p =
    Parser.parse
      {|
program p;
nv int a[4];
vol int b[4];
task t {
  int x;
  while (x < 3) { x = call_io(Temp, Single); }
  if (x > 0) { dma_copy(a[0], b[0], 4); }
  stop;
}
|}
  in
  let cs = codes (Analysis.supported p) in
  checki "both violations" 2 (List.length cs);
  checkb "E0201 first (source order)" true (cs = [ "E0201"; "E0203" ])

let test_diagnostic_render_caret () =
  let src = "program p;\nnv int a;\nnv int a;\ntask t { stop; }\n" in
  let ds = Analysis.resolve (Parser.parse src) in
  checki "one diagnostic" 1 (List.length ds);
  let r = Diagnostics.render ~src (List.hd ds) in
  checkb "header has code" true (contains r "error[E0103]");
  checkb "location arrow" true (contains r "--> line 3");
  checkb "source excerpt" true (contains r "nv int a;");
  checkb "caret underline" true (contains r "^^^")

let test_parse_error_has_span () =
  match Parser.parse "program p;\ntask t { x = ; }" with
  | _ -> Alcotest.fail "expected syntax error"
  | exception Parser.Error (span, _) ->
      checki "error on line 2" 2 span.Span.s.Span.line

let test_diagnostic_json_shape () =
  let src = "program p;\nnv int a;\nnv int a;\ntask t { stop; }\n" in
  let ds = Analysis.resolve (Parser.parse src) in
  match Diagnostics.report_to_json ~file:"x.eio" ds with
  | Trace.Json.Obj fields ->
      checkb "file field" true (List.mem_assoc "file" fields);
      checkb "errors field" true (List.assoc "errors" fields = Trace.Json.Int 1);
      checkb "warnings field" true (List.assoc "warnings" fields = Trace.Json.Int 0);
      (match List.assoc "diagnostics" fields with
      | Trace.Json.List [ Trace.Json.Obj d ] ->
          checkb "code" true (List.assoc "code" d = Trace.Json.String "E0103");
          checkb "severity" true (List.assoc "severity" d = Trace.Json.String "error");
          checkb "span present" true (List.mem_assoc "span" d)
      | _ -> Alcotest.fail "diagnostics not a one-element list")
  | _ -> Alcotest.fail "report not an object"

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analysis_codes src =
  let _, ctx = Pass.run_pipeline Pass.analysis_passes (Parser.parse src) in
  List.sort_uniq compare (codes (Diagnostics.contents ctx.Pass.bag))

let test_lint_fixtures () =
  List.iter
    (fun (file, code) ->
      let src = read_file ("../examples/programs/lints/" ^ file) in
      Alcotest.(check (list string))
        (file ^ " triggers exactly " ^ code)
        [ code ] (analysis_codes src))
    [
      ("w0401_redundant_always.eio", "W0401");
      ("w0402_stale_deadline.eio", "W0402");
      ("w0403_unprivatized_war.eio", "W0403");
      ("e0301_flag_collision.eio", "E0301");
    ]

let test_lint_clean_on_compiled_output () =
  (* compiled programs legitimately own the __ namespace: re-checking
     them must not produce E0301 *)
  let src = read_file "../examples/programs/motion_log.eio" in
  let r = Transform.apply (Parser.program src) in
  let cs = analysis_codes (Pretty.program_to_string r.Transform.prog) in
  checkb "no E0301 on compiled output" true (not (List.mem "E0301" cs));
  checkb "no errors on compiled output" true
    (List.for_all (fun c -> c.[0] <> 'E') cs)

let test_capacitor_recharge () =
  let cap = Capacitor.mf1_powercast () in
  checki "mf1 at 1 nJ/us" 2_300_000 (Capacitor.worst_case_recharge_us cap ~power_nj_per_us:1.0);
  checki "doubling power halves time" 1_150_000
    (Capacitor.worst_case_recharge_us cap ~power_nj_per_us:2.0);
  checki "lint default agrees" 2_300_000 (Lint.default_recharge_us ());
  (* a deadline above the threshold is fine *)
  let ok =
    Lint.run ~recharge_us:100
      (Parser.parse
         "program p;\nnv int l;\ntask t { l = call_io(Temp, Timely, 200us); stop; }")
  in
  checkb "long deadline clean" true (not (List.mem "W0402" (codes ok)))

let test_pipeline_matches_apply () =
  (* the staged pipeline and the one-shot legacy entry must agree on
     everything observable: output text, clear schedule, demand *)
  List.iter
    (fun src ->
      let p () = Parser.program src in
      let r = Transform.apply (p ()) in
      let prog, ctx = Pass.run_pipeline Pass.compile_passes (p ()) in
      checkb "no errors" true
        (not (Diagnostics.has_errors (Diagnostics.contents ctx.Pass.bag)));
      checks "same program" (Pretty.program_to_string r.Transform.prog)
        (Pretty.program_to_string prog);
      checkb "same clear schedule" true
        (r.Transform.clear_flags = ctx.Pass.art.Pass.clear_flags);
      checki "same demand" r.Transform.priv_demand_words ctx.Pass.art.Pass.demand_words)
    [
      fig2c_src;
      fig6_src;
      read_file "../examples/programs/greenhouse.eio";
      read_file "../examples/programs/motion_log.eio";
    ]

let test_compile_fixed_point () =
  (* apply (parse (pretty (apply p))) is the identity: compiled
     artifacts re-compile to themselves *)
  List.iter
    (fun src ->
      let r = Transform.apply (Parser.program src) in
      let txt = Pretty.program_to_string r.Transform.prog in
      let p2 = Parser.parse txt in
      checkb "lowered detected" true (Transform.is_lowered p2);
      let r2 = Transform.apply p2 in
      checks "fixed point" txt (Pretty.program_to_string r2.Transform.prog);
      checki "no re-added demand" 0 r2.Transform.priv_demand_words)
    [ fig6_src; read_file "../examples/programs/greenhouse.eio" ]

let test_dump_after_reparses () =
  (* every intermediate program of the pipeline is valid concrete
     syntax, and parsing it back loses nothing but spans *)
  let src = read_file "../examples/programs/motion_log.eio" in
  let dumps = ref [] in
  let observe name prog = dumps := (name, prog) :: !dumps in
  let _ = Pass.run_pipeline ~observe Pass.compile_passes (Parser.parse src) in
  checki "eight passes observed" 8 (List.length !dumps);
  List.iter
    (fun (name, prog) ->
      let txt = Pretty.program_to_string prog in
      match Parser.parse txt with
      | reparsed ->
          checkb (name ^ " dump reparses losslessly") true
            (Ast.strip reparsed = Ast.strip prog)
      | exception Parser.Error (_, msg) ->
          Alcotest.fail (Printf.sprintf "dump after %s does not reparse: %s" name msg))
    !dumps

(* {1 Loop-indexed lock array edges} *)

let test_loop_trip_one () =
  let r =
    Transform.apply
      (Parser.program
         "program p;\nnv int o;\ntask t { int x; for i = 5 to 5 { x = call_io(Temp, Single); o \
          = o + x; } stop; }")
  in
  let txt = Pretty.program_to_string r.Transform.prog in
  checkb "indexed guard normalizes base" true (contains txt "__lock_Temp_t_0[i - 5] == 0");
  let decl =
    List.find (fun d -> d.Ast.v_name = "__lock_Temp_t_0") r.Transform.prog.Ast.p_globals
  in
  checki "single-element lock array" 1 decl.Ast.v_words

let test_loop_hi_below_lo () =
  (* a loop that never runs still compiles; its site gets a scalar slot
     (no loop context) and execution leaves the body untouched *)
  let src =
    "program p;\nnv int o = 7;\ntask t { int x; for i = 5 to 3 { x = call_io(Temp, Single); o \
     = o + x; } stop; }"
  in
  let r = Transform.apply (Parser.program src) in
  let decl =
    List.find (fun d -> d.Ast.v_name = "__lock_Temp_t_0") r.Transform.prog.Ast.p_globals
  in
  checki "scalar lock slot" 1 decl.Ast.v_words;
  let m = Machine.create () in
  let t = Interp.build m (Parser.program src) in
  let o = Interp.run t in
  checkb "completes" true o.Kernel.Engine.completed;
  checki "body never ran" 7 (Interp.read_global t "o" 0)

let test_nested_static_demoted () =
  (* nesting demotes even statically bounded loops: per-iteration state
     would need one slot per (i, j) pair, which the front-end does not
     model — must be rejected, not miscompiled *)
  let p =
    Parser.parse
      "program p;\nnv int o;\ntask t { int x; for i = 0 to 3 { for j = 0 to 3 { x = \
       call_io(Temp, Single); o = o + x; } } stop; }"
  in
  checkb "E0201 on nested static" true (List.mem "E0201" (codes (Analysis.supported p)))

(* {1 Footprint} *)

let test_footprint_accounting () =
  let measure policy src =
    let m = Machine.create () in
    let t = Interp.build ~policy m (Parser.program src) in
    Footprint.measure t
  in
  let f = measure Interp.Easeio fig6_src in
  checki "fram total = app + runtime" (Footprint.fram_total f)
    (f.Footprint.fram_app_bytes + f.Footprint.fram_runtime_bytes);
  (* app data is policy-independent; runtime metadata is not *)
  let a = measure Interp.Alpaca fig6_src and pl = measure Interp.Plain fig6_src in
  checki "app bytes match across policies" f.Footprint.fram_app_bytes
    a.Footprint.fram_app_bytes;
  checkb "plain carries least runtime fram" true
    (pl.Footprint.fram_runtime_bytes <= a.Footprint.fram_runtime_bytes
    && pl.Footprint.fram_runtime_bytes <= f.Footprint.fram_runtime_bytes);
  (* more statements, more text *)
  let small = measure Interp.Easeio fig2c_src in
  checkb "bigger program, bigger text" true (f.Footprint.text_bytes > small.Footprint.text_bytes)

(* {1 Whole-program print/parse round trip} *)

let roundtrip_ok src =
  let p = Parser.parse src in
  Ast.strip (Parser.parse (Pretty.program_to_string p)) = Ast.strip p

let test_examples_roundtrip () =
  List.iter
    (fun path ->
      checkb (path ^ " roundtrips modulo spans") true (roundtrip_ok (read_file path)))
    [ "../examples/programs/greenhouse.eio"; "../examples/programs/motion_log.eio" ]

let program_gen =
  let open QCheck.Gen in
  let sem =
    oneof
      [
        return Easeio.Semantics.Single;
        return Easeio.Semantics.Always;
        map (fun d -> Easeio.Semantics.Timely d) (int_range 1 50_000);
      ]
  in
  (* arity-0 sensors keep generated programs resolve-clean; arguments
     and peripheral arrays are exercised by the shipped examples *)
  let io = oneofl [ "Temp"; "Humd"; "Pres"; "Light" ] in
  let local = oneofl [ "x"; "y" ] in
  let base =
    oneof
      [
        map2 (fun v e -> Ast.mk (Ast.Assign (v, e))) local expr_gen;
        map3 (fun i e () -> Ast.mk (Ast.Store ("buf", i, e))) expr_gen expr_gen unit;
        map3
          (fun tgt io sem ->
            Ast.mk (Ast.Call_io { target = Some tgt; io; sem; args = []; guarded = false }))
          local io sem;
      ]
  in
  let stmts =
    oneof
      [
        list_size (int_range 1 3) base;
        map2
          (fun c body -> [ Ast.mk (Ast.If (c, body, [])) ])
          expr_gen
          (list_size (int_range 1 2) base);
        map2
          (fun sem body -> [ Ast.mk (Ast.Io_block { blk_sem = sem; blk_body = body }) ])
          sem
          (list_size (int_range 1 2) base);
        map3
          (fun lo n body -> [ Ast.mk (Ast.For ("i", Ast.Int lo, Ast.Int (lo + n), body)) ])
          (int_range 0 5) (int_range 0 3)
          (list_size (int_range 1 2) base);
      ]
  in
  let globals =
    let decl name space words init =
      { Ast.v_name = name; v_space = space; v_words = words; v_init = init; v_span = Span.ghost }
    in
    map2
      (fun n init_scalar ->
        [
          decl "g0" Ast.Nv 1 (if init_scalar then Some [| n |] else None);
          decl "buf" Ast.Nv 8 None;
          decl "g2" Ast.Vol 4 None;
        ])
      (int_range 0 99) bool
  in
  map3
    (fun globals b0 b1 ->
      {
        Ast.p_name = "rnd";
        p_entry = "t0";
        p_globals = globals;
        p_tasks =
          [
            { Ast.t_name = "t0"; t_body = b0 @ [ Ast.mk (Ast.Next "t1") ]; t_span = Span.ghost };
            { Ast.t_name = "t1"; t_body = b1 @ [ Ast.mk Ast.Stop ]; t_span = Span.ghost };
          ];
      })
    globals stmts stmts

let prop_program_roundtrip =
  QCheck.Test.make ~name:"parse (pretty p) = p modulo spans for random programs" ~count:100
    (QCheck.make ~print:(fun p -> Pretty.program_to_string p) program_gen)
    (fun p ->
      Ast.strip (Parser.parse (Pretty.program_to_string p)) = Ast.strip p)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "lang"
    [
      ( "parser",
        [
          tc "expressions" `Quick test_parse_expr;
          tc "program" `Quick test_parse_program;
          tc "time suffixes" `Quick test_parse_time_suffixes;
          tc "errors" `Quick test_parse_errors;
          tc "printer roundtrip" `Quick test_roundtrip_through_printer;
          QCheck_alcotest.to_alcotest prop_printer_parser_roundtrip;
        ] );
      ( "analysis",
        [
          tc "fig6 has no cpu WAR" `Quick test_war_analysis;
          tc "detects cpu WAR" `Quick test_war_detects_cpu_war;
          tc "region split" `Quick test_region_split;
          tc "rejects unsupported" `Quick test_check_supported_rejects;
          tc "always-in-loop supported" `Quick test_always_in_loop_supported;
          tc "static-loop single supported" `Quick test_static_loop_single_supported;
        ] );
      ( "transform",
        [
          tc "inserts lock flags" `Quick test_transform_inserts_lock_flags;
          tc "timely uses clock" `Quick test_transform_timely_uses_clock;
          tc "regions and seal" `Quick test_transform_regions_and_seal;
          tc "clear flags per task" `Quick test_transform_clear_flags_per_task;
          tc "dependence marks dma" `Quick test_transform_dependence_marks_dma;
          tc "privatization buffer check" `Quick test_transform_priv_buffer_check;
          tc "exclude skips demand" `Quick test_transform_exclude_skips_demand;
          tc "loop-indexed lock arrays" `Quick test_transform_loop_indexed_arrays;
          tc "ablate semantics" `Quick test_transform_ablate_semantics;
          tc "ablate regions" `Quick test_transform_ablate_regions;
        ] );
      ( "interp",
        [
          tc "basic compute" `Quick test_interp_basic_compute;
          tc "arrays and while" `Quick test_interp_arrays_and_while;
          tc "io and radio" `Quick test_interp_io_and_radio;
          tc "lea fir" `Quick test_interp_lea_fir;
          tc "fig6 baselines corrupt" `Quick test_interp_fig6_baselines_corrupt;
          tc "fig6 easeio correct" `Quick test_interp_fig6_easeio_correct;
          tc "easeio skips single io" `Quick test_interp_easeio_skips_single;
          tc "baselines re-execute io" `Quick test_interp_baselines_reexecute_io;
          tc "easeio branch stability" `Quick test_interp_easeio_branch_stability;
          tc "fig3 timely block" `Quick test_interp_timely_block_fig3;
          tc "timer failures match golden" `Quick test_interp_under_timer_failures_matches_golden;
          tc "loop-indexed no repeats" `Quick test_interp_loop_indexed_no_repeats;
          tc "loop flags clear between instances" `Quick test_interp_loop_flags_clear_between_instances;
          tc "ablate regions corrupts" `Quick test_interp_ablate_regions_corrupts;
          tc "ablate semantics re-executes" `Quick test_interp_ablate_semantics_reexecutes;
          tc "shipped programs run" `Quick test_shipped_programs;
          tc "footprint ordering" `Quick test_footprint_ordering;
          QCheck_alcotest.to_alcotest prop_easeio_always_matches_golden;
        ] );
      ( "diagnostics",
        [
          tc "resolve collects all" `Quick test_resolve_collects_all;
          tc "supported collects all" `Quick test_supported_collects_all;
          tc "caret render" `Quick test_diagnostic_render_caret;
          tc "parse error has span" `Quick test_parse_error_has_span;
          tc "json shape" `Quick test_diagnostic_json_shape;
        ] );
      ( "pipeline",
        [
          tc "lint fixtures" `Quick test_lint_fixtures;
          tc "lints clean on compiled output" `Quick test_lint_clean_on_compiled_output;
          tc "capacitor recharge lint threshold" `Quick test_capacitor_recharge;
          tc "pipeline matches apply" `Quick test_pipeline_matches_apply;
          tc "compile fixed point" `Quick test_compile_fixed_point;
          tc "dump-after reparses" `Quick test_dump_after_reparses;
        ] );
      ( "loop edges",
        [
          tc "trip count one" `Quick test_loop_trip_one;
          tc "hi below lo" `Quick test_loop_hi_below_lo;
          tc "nested static demoted" `Quick test_nested_static_demoted;
        ] );
      ( "footprint",
        [ tc "accounting identities" `Quick test_footprint_accounting ] );
      ( "roundtrip",
        [
          tc "shipped examples" `Quick test_examples_roundtrip;
          QCheck_alcotest.to_alcotest prop_program_roundtrip;
        ] );
    ]
