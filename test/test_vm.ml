(* Differential tests for the bytecode VM: on every program we can get
   our hands on — the evaluation-application catalog, the shipped
   example and fuzz-corpus `.eio` files, and qcheck-generated programs —
   the VM must be observationally identical to the tree-walking
   interpreter: same run summary (completion, correctness, times,
   energy, I/O counts), same charge count, same event counters, same
   final NV state, under every runtime and failure schedule, including
   an exhaustive-in-spirit [Nth_charge] boundary sweep. The arena-reuse
   contract ([Vm.reset]) is exercised by running many configurations
   through one compiled image.

   The VM applies a straight-line block's charges in one step when
   nothing can observe the charges between (see [Vm.blockify]); the
   cases under "blocks" aim at the points where that must not show:
   errors and the step limit inside a block, failures landing inside
   loop bodies, metered runs, whose batches must count every per-op
   dispatch they skip, traced runs, where a capacitor sample falling
   due inside a block forces the per-op path, and energy-driven runs,
   which always take it. *)

open Platform

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* {1 Direct program-level comparison} *)

(* Everything observable about a finished run, in one comparable
   value. Error runs are folded in as [Error message] so crashing
   programs (fuzz corpus) must crash identically. *)
type observation = {
  result : (Expkit.Run.one, string) result;
  charges : int;
  now : int;
  energy_nj : float;
  events : (string * int) list;
  globals : (string * int array) list;
}

let default_machine ~seed ~failure = Machine.create ~seed ~failure ()

let observe_tree ?(machine = default_machine) prog policy ~failure ~seed =
  let m = machine ~seed ~failure in
  let t = Lang.Interp.build ~policy ~extra_io:[ Apps.Common.lea_fir_seg ] m prog in
  let result =
    match Lang.Interp.run t with
    | o -> Ok (Expkit.Run.of_outcome m o)
    | exception Lang.Ast.Error msg -> Error msg
  in
  {
    result;
    charges = Machine.charges m;
    now = Machine.now m;
    energy_nj = Machine.energy_used_nj m;
    events = Machine.events m;
    globals =
      (* the executed program: under EaseIO the transform inserts
         runtime globals, which must match too *)
      List.map
        (fun d ->
          ( d.Lang.Ast.v_name,
            Array.init d.Lang.Ast.v_words (Lang.Interp.read_global t d.Lang.Ast.v_name) ))
        (Lang.Interp.program t).Lang.Ast.p_globals;
  }

let observe_vm vm ~failure ~seed =
  Vm.reset ~seed ~failure vm;
  let m = Vm.machine vm in
  let result =
    match Vm.run vm with
    | o -> Ok (Expkit.Run.of_outcome m o)
    | exception Lang.Ast.Error msg -> Error msg
  in
  let linked = Vm.linked vm in
  {
    result;
    charges = Machine.charges m;
    now = Machine.now m;
    energy_nj = Machine.energy_used_nj m;
    events = Machine.events m;
    globals =
      List.map
        (fun d ->
          ( d.Lang.Ast.v_name,
            Array.init d.Lang.Ast.v_words (Lang.Interp.read_global linked d.Lang.Ast.v_name) ))
        (Lang.Interp.program linked).Lang.Ast.p_globals;
  }

let policies = [ Lang.Interp.Plain; Lang.Interp.Alpaca; Lang.Interp.Ink; Lang.Interp.Easeio ]

let ctx_name policy failure seed =
  Printf.sprintf "%s/%s/seed%d" (Lang.Interp.policy_name policy) (Failure.to_string failure) seed

(* Compare one program across policies × failures × seeds, compiling
   the VM image once per policy and recycling it via [Vm.reset] — the
   arena path the experiment harness uses. *)
let assert_program_matches ?(failures = [ Failure.No_failures; Failure.paper_timer ])
    ?(seeds = [ 1; 2 ]) ~name src =
  let prog = Lang.Parser.program src in
  List.iter
    (fun policy ->
      let vm =
        Vm.compile ~policy ~extra_io:[ Apps.Common.lea_fir_seg ]
          (Machine.create ~seed:1 ~failure:Failure.No_failures ())
          prog
      in
      List.iter
        (fun failure ->
          List.iter
            (fun seed ->
              let where = name ^ " " ^ ctx_name policy failure seed in
              let tr = observe_tree prog policy ~failure ~seed in
              let vr = observe_vm vm ~failure ~seed in
              checkb (where ^ ": run summary") true (tr.result = vr.result);
              checki (where ^ ": charges") tr.charges vr.charges;
              checki (where ^ ": clock") tr.now vr.now;
              checkb (where ^ ": energy") true (tr.energy_nj = vr.energy_nj);
              checkb (where ^ ": events") true (tr.events = vr.events);
              checkb (where ^ ": NV state") true (tr.globals = vr.globals))
            seeds)
        failures)
    policies

(* {1 Catalog applications through the spec harness} *)

(* The catalog runs go through [Common.run_ir]'s two executor paths —
   the exact code the bench/expkit harness uses, including the
   domain-local arena cache, app setup and result checks. *)
let test_catalog_matches () =
  List.iter
    (fun spec ->
      List.iter
        (fun variant ->
          List.iter
            (fun failure ->
              List.iter
                (fun seed ->
                  let run interp = spec.Apps.Common.run ~interp variant ~failure ~seed in
                  let tr = run Apps.Common.Tree_walk in
                  let vr = run Apps.Common.Bytecode in
                  checkb
                    (Printf.sprintf "%s/%s/%s/seed%d" spec.Apps.Common.app_name
                       (Apps.Common.variant_name variant)
                       (Failure.to_string failure) seed)
                    true (tr = vr))
                [ 1; 2; 3 ])
            [ Failure.No_failures; Failure.paper_timer ])
        Apps.Common.all_variants)
    Apps.Catalog.all

(* {1 Shipped programs} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture name = Filename.concat "../examples/programs" name

let test_examples_match () =
  List.iter
    (fun name -> assert_program_matches ~name (read_file (fixture name)))
    [ "greenhouse.eio"; "motion_log.eio" ]

let test_fuzz_corpus_matches () =
  let dir = fixture "fuzz-corpus" in
  let cases =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".eio")
    |> List.sort compare
  in
  checkb "corpus present" true (cases <> []);
  List.iter
    (fun name ->
      assert_program_matches ~seeds:[ 1 ] ~name (read_file (Filename.concat dir name)))
    cases

(* {1 Nth_charge boundary sweep} *)

(* Power failures at strided charge boundaries of every task-language
   catalog app under every runtime: the finest-grained failure placement
   the simulator supports, so VM and tree must agree wherever the
   failure strikes — also at a charge in the middle of a block, where
   the VM must not batch. With an odd stride of about a twelfth of the
   run, successive points fall at different phases of the loop bodies,
   inside their blocks. *)
let task_language_apps = [ "LEA"; "DMA"; "Temp"; "FIR" ]

let test_nth_charge_sweep () =
  List.iter
    (fun name ->
      let spec = Apps.Catalog.find name in
      List.iter
        (fun variant ->
          let probe_charges = ref 0 in
          ignore
            (spec.Apps.Common.run variant ~failure:Failure.No_failures ~seed:1
               ~probe:(fun m -> probe_charges := Machine.charges m));
          let total = !probe_charges in
          checkb "clean run charges known" true (total > 0);
          let stride = (total / 12) lor 1 in
          let n = ref 3 in
          while !n <= total do
            let failure = Failure.Nth_charge !n in
            let run interp = spec.Apps.Common.run ~interp variant ~failure ~seed:1 in
            let tr = run Apps.Common.Tree_walk in
            let vr = run Apps.Common.Bytecode in
            checkb
              (Printf.sprintf "%s/%s/nth:%d" name (Apps.Common.variant_name variant) !n)
              true (tr = vr);
            n := !n + stride
          done)
        Apps.Common.all_variants)
    task_language_apps

(* {1 Blocks} *)

(* Programs that raise in the middle of a straight-line block, after
   several charged ops and a store: the VM must take back the part of
   the block's one-step charge that the error cut off. Locals and a
   volatile array keep the block whole under Alpaca too, whose managed
   NV accesses end blocks. *)
let error_program ~name body =
  Printf.sprintf
    {|
program %s;
nv int out;
vol int buf[4];
task t {
  int a;
  int b;
  int z;
  a = 3;
  b = a + 4;
  buf[1] = a * b;
  z = buf[1] - 21;
  %s
  b = b + a;
  out = b;
  stop;
}
|}
    name body

let error_cases =
  [
    ("index load", error_program ~name:"err_load" "a = buf[b + 1];", "index 8 out of bounds for buf[4]");
    ("index store", error_program ~name:"err_store" "buf[b - 11] = a;", "index -4 out of bounds for buf[4]");
    ("division", error_program ~name:"err_div" "a = b / z;", "division by zero");
    ("modulo", error_program ~name:"err_mod" "a = b % z;", "modulo by zero");
  ]

let block_policies = [ Lang.Interp.Plain; Lang.Interp.Alpaca; Lang.Interp.Easeio ]

let check_raises ~name ~failures src msg =
  let prog = Lang.Parser.program src in
  List.iter
    (fun policy ->
      let vm =
        Vm.compile ~policy ~extra_io:[ Apps.Common.lea_fir_seg ]
          (Machine.create ~seed:1 ~failure:Failure.No_failures ())
          prog
      in
      List.iter
        (fun failure ->
          let where = name ^ " " ^ ctx_name policy failure 1 in
          let tr = observe_tree prog policy ~failure ~seed:1 in
          let vr = observe_vm vm ~failure ~seed:1 in
          checkb (where ^ ": tree raises") true (tr.result = Error msg);
          checkb (where ^ ": VM raises") true (vr.result = Error msg);
          checki (where ^ ": charges") tr.charges vr.charges;
          checki (where ^ ": clock") tr.now vr.now;
          checkb (where ^ ": energy") true (tr.energy_nj = vr.energy_nj);
          checkb (where ^ ": events and NV state") true (tr = vr))
        failures)
    block_policies

let test_errors_inside_blocks () =
  List.iter
    (fun (name, src, msg) ->
      check_raises ~name ~failures:[ Failure.No_failures; Failure.paper_timer ] src msg)
    error_cases

(* The step limit must stop the loop at the same op: the budget runs
   out in the middle of the loop body's block, so the VM must see at
   the block head that the block would overrun it. *)
let spin_src =
  {|
program spin;
nv int out;
task t {
  int a;
  int b;
  a = 0;
  b = 0;
  while (1) { a = a + 1; b = a * 2; }
}
|}

let test_step_limit_inside_block () =
  check_raises ~name:"spin" ~failures:[ Failure.No_failures ] spin_src
    "step limit exceeded (infinite loop?)"

(* {1 Operand bounds}

   An LEA command's operand ranges are checked against their own
   arrays, not only against SRAM, and a DMA or memcpy count must not be
   negative: either is a language error on both executors, raised
   before the command is issued. Each program first fills [vc], which the
   unchecked FIR overwrote. *)
let operand_program body =
  Printf.sprintf
    {|
program operand_bounds;
vol int va[4];
vol int vb[4];
vol int vc[4];
vol int big[16];
nv int out;
task t {
  int r;
  int i;
  for i = 0 to 3 { va[i] = i + 1; vb[i] = 2; vc[i] = 7; }
  for i = 0 to 15 { big[i] = i; }
  r = 0;
  %s
  out = r + vc[0];
  stop;
}
|}
    body

let operand_error_cases =
  [
    ( "dma negative count",
      "dma_copy(va[0], vb[0], 0 - 1);",
      "dma_copy: negative length -1" );
    ( "memcpy negative count",
      "memcpy(vb[0], va[0], 0 - 1);",
      "memcpy: negative length -1" );
    ( "fir output past its array",
      "call_io(Lea_fir, Always, big, vb, 2, vb, 10);",
      "Lea_fir: output range [0, 10) outside its 4-word array" );
    ( "fir input past its array",
      "call_io(Lea_fir, Always, va, vb, 2, vc, 4);",
      "Lea_fir: input range [0, 5) outside its 4-word array" );
    ( "fir taps past coeffs",
      "call_io(Lea_fir, Always, big, vb, 5, vc, 2);",
      "Lea_fir: coeffs range [0, 5) outside its 4-word array" );
    ( "fir negative taps",
      "call_io(Lea_fir, Always, va, vb, 0 - 1, vc, 2);",
      "Lea_fir: negative taps -1" );
    ( "fir negative samples",
      "call_io(Lea_fir, Always, va, vb, 2, vc, 0 - 2);",
      "Lea_fir: negative samples -2" );
    ( "mac past its arrays",
      "r = call_io(Lea_mac, Always, va, big, 5);",
      "Lea_mac: a range [0, 5) outside its 4-word array" );
    ( "mac negative length",
      "r = call_io(Lea_mac, Always, va, vb, 0 - 1);",
      "Lea_mac: negative length -1" );
    ( "fir_seg negative offset",
      "call_io(Lea_fir_seg, Always, big, 0 - 1, vb, 2, vc, 0, 2);",
      "Lea_fir_seg: input range [-1, 2) outside its 16-word array" );
    ( "fir_seg taps past coeffs",
      "call_io(Lea_fir_seg, Always, big, 0, vb, 5, vc, 0, 2);",
      "Lea_fir_seg: coeffs range [0, 5) outside its 4-word array" );
    ( "fir_seg output offset past its array",
      "call_io(Lea_fir_seg, Always, big, 0, vb, 2, vc, 3, 2);",
      "Lea_fir_seg: output range [3, 5) outside its 4-word array" );
    ( "fir_seg negative output offset",
      "call_io(Lea_fir_seg, Always, big, 0, vb, 2, vc, 0 - 1, 2);",
      "Lea_fir_seg: output range [-1, 1) outside its 4-word array" );
    ( "fir_seg negative samples",
      "call_io(Lea_fir_seg, Always, big, 0, vb, 2, vc, 0, 0 - 1);",
      "Lea_fir_seg: negative samples -1" );
  ]

let test_operand_bounds () =
  List.iter
    (fun (name, body, msg) ->
      check_raises ~name ~failures:[ Failure.No_failures ] (operand_program body) msg)
    operand_error_cases;
  (* ranges that end exactly at their arrays' ends still run, and agree *)
  assert_program_matches ~name:"lea at bounds" ~failures:[ Failure.No_failures ] ~seeds:[ 1 ]
    (operand_program
       ("call_io(Lea_fir, Always, big, vb, 4, vc, 4);\n"
       ^ "call_io(Lea_fir_seg, Always, big, 12, vb, 4, vc, 3, 1);\n"
       ^ "r = call_io(Lea_mac, Always, va, vb, 4);"))

(* Observers leave results alone: a metered run must count every I/O
   verdict, with and without a sink, and leave the tree walker's
   results and shared counters; its dispatch counts are held against
   the per-op oracle below. *)
let counters sheet = (Obs.Snapshot.of_sheet sheet).Obs.Snapshot.counters

let is_vm (k, _) = String.starts_with ~prefix:"vm/" k
let is_io (k, _) = String.starts_with ~prefix:"io/" k
let without_vm cs = List.filter (fun c -> not (is_vm c)) cs

let test_metered_run () =
  List.iter
    (fun name ->
      let spec = Apps.Catalog.find name in
      let run ?sink interp =
        let sheet = Obs.Sheet.create () in
        let one =
          spec.Apps.Common.run ~interp ?sink ~meter:sheet Apps.Common.Easeio
            ~failure:Failure.paper_timer ~seed:3
        in
        (one, counters sheet)
      in
      let tr, tc = run Apps.Common.Tree_walk in
      let vr, vc = run Apps.Common.Bytecode in
      let _, vc_traced = run ~sink:(fun _ -> ()) Apps.Common.Bytecode in
      checkb (name ^ ": metered result") true (tr = vr);
      (* the tree walker dispatches no bytecode: a [vm/*] counter here
         means the VM ran in its place, and this file's tree-vs-VM
         differentials would compare the VM with itself *)
      checkb (name ^ ": tree run has no vm counters") true (without_vm tc = tc);
      checkb (name ^ ": shared counters") true (without_vm tc = without_vm vc);
      checkb (name ^ ": dispatch counts with and without a sink") true
        (List.filter is_vm vc = List.filter is_vm vc_traced);
      checkb (name ^ ": io counters with and without a sink") true
        (List.filter is_io vc = List.filter is_io vc_traced);
      (* the sink-less counts include the verdicts of FIR's three
         private DMAs *)
      if name = "FIR" then
        checkb "FIR: private-DMA verdicts counted" true
          (List.filter is_io vc = [ ("io/exec", 4); ("io/replay", 6); ("io/skip", 2) ]);
      checkb (name ^ ": ops counted") true
        (List.exists (fun (k, n) -> k = "vm/op/stmt" && n > 0) vc);
      checkb (name ^ ": no block counter") true
        (List.for_all (fun (k, _) -> not (String.starts_with ~prefix:"vm/op/block" k)) vc))
    task_language_apps

(* Energy mode charges op by op whatever the meter, so a metered
   energy-mode run on a capacitor and harvester that never die counts
   what the per-op code dispatches: the oracle for the metered run under
   continuous power, whose blocks batch. The two must agree on every
   [vm/*] counter, the clock and the charge count. *)
let never_dies ~seed ~failure =
  Machine.create ~seed ~failure
    ~capacitor:(Capacitor.create ~capacity_nj:1e15 ~on_level_nj:1.)
    ~harvester:(Harvester.constant 1e6) ()

let app_sources =
  [
    ("LEA", Apps.Uni.lea_source);
    ("DMA", Apps.Uni.dma_source);
    ("Temp", Apps.Uni.temp_source);
    ("FIR", Apps.Fir.source ~exclude_coefs:false);
  ]

let metered_vm_run ~machine ~failure policy prog =
  let vm =
    Vm.compile ~policy ~extra_io:[ Apps.Common.lea_fir_seg ] (machine ~seed:1 ~failure) prog
  in
  Vm.reset ~seed:1 ~failure vm;
  let m = Vm.machine vm in
  let sheet = Obs.Sheet.create () in
  Machine.set_meter m sheet;
  let o = Vm.run vm in
  checkb "run completes" true (not o.Kernel.Engine.gave_up);
  (List.filter is_vm (counters sheet), Machine.now m, Machine.charges m)

let test_metered_counts_per_op () =
  List.iter
    (fun (name, src) ->
      let prog = Lang.Parser.program src in
      List.iter
        (fun policy ->
          let where = name ^ "/" ^ Lang.Interp.policy_name policy in
          let bc, bnow, bcharges =
            metered_vm_run ~machine:default_machine ~failure:Failure.No_failures policy prog
          in
          let vc, now, charges =
            metered_vm_run ~machine:never_dies ~failure:Failure.Energy_driven policy prog
          in
          checkb (where ^ ": ops counted") true
            (List.exists (fun (k, n) -> k = "vm/op/stmt" && n > 0) vc);
          checkb (where ^ ": dispatch counts = per-op oracle") true (bc = vc);
          checki (where ^ ": clock") now bnow;
          checki (where ^ ": charges") charges bcharges)
        [ Lang.Interp.Easeio; Lang.Interp.Alpaca; Lang.Interp.Ink ])
    app_sources

let test_traced_run () =
  List.iter
    (fun name ->
      let spec = Apps.Catalog.find name in
      let run interp =
        let rec_ = Trace.Recorder.create () in
        let one =
          spec.Apps.Common.run ~interp ~sink:(Trace.Recorder.sink rec_) Apps.Common.Alpaca
            ~failure:Failure.paper_timer ~seed:5
        in
        (one, Trace.Recorder.events rec_)
      in
      let tr, te = run Apps.Common.Tree_walk in
      let vr, ve = run Apps.Common.Bytecode in
      checkb (name ^ ": traced result") true (tr = vr);
      checkb (name ^ ": trace events") true (te = ve);
      checkb (name ^ ": capacitor sampled") true
        (List.exists
           (fun e -> match e.Trace.Event.payload with Trace.Event.Cap_level _ -> true | _ -> false)
           ve))
    task_language_apps

(* A traced run batches a block only while no capacitor sample falls due
   inside it. This loop body is one block of about 45 µs, so most of the
   1 ms samples of the 9 ms run fall due inside it, where the VM must
   charge op by op to emit the sample at the tree walker's instant and
   level. *)
let sampled_src =
  {|
program sampled;
nv int out;
vol int buf[4];
task t {
  int a;
  int b;
  a = 1;
  b = 2;
  for i = 0 to 199 {
    a = a + b * 3 - i;
    b = b + a - 7;
    buf[1] = a - b;
    a = buf[1] + a * 2;
    b = (b + i) % 1000;
    buf[2] = a + b + buf[1];
    a = (buf[2] - a) % 977;
  }
  out = a + b;
  stop;
}
|}

let test_sample_inside_block () =
  let prog = Lang.Parser.program sampled_src in
  List.iter
    (fun policy ->
      let vm =
        Vm.compile ~policy (Machine.create ~seed:1 ~failure:Failure.No_failures ()) prog
      in
      List.iter
        (fun failure ->
          let where = ctx_name policy failure 1 in
          let tree_rec = Trace.Recorder.create () in
          let machine ~seed ~failure =
            let m = Machine.create ~seed ~failure () in
            Machine.set_sink m (Trace.Recorder.sink tree_rec);
            m
          in
          let tr = observe_tree ~machine prog policy ~failure ~seed:1 in
          let vm_rec = Trace.Recorder.create () in
          Vm.reset ~seed:1 ~failure vm;
          Machine.set_sink (Vm.machine vm) (Trace.Recorder.sink vm_rec);
          let o = Vm.run vm in
          let te = Trace.Recorder.events tree_rec and ve = Trace.Recorder.events vm_rec in
          let samples =
            List.length
              (List.filter
                 (fun e ->
                   match e.Trace.Event.payload with Trace.Event.Cap_level _ -> true | _ -> false)
                 ve)
          in
          checkb (where ^ ": run summary") true
            (tr.result = Ok (Expkit.Run.of_outcome (Vm.machine vm) o));
          checki (where ^ ": charges") tr.charges (Machine.charges (Vm.machine vm));
          checkb (where ^ ": samples taken") true (samples >= 10);
          checkb (where ^ ": trace events") true (te = ve))
        [ Failure.No_failures; Failure.paper_timer ])
    block_policies

(* Energy-driven failures drain the capacitor on every charge: a small
   capacitor and a weak harvester make the Temp app die and recharge
   several times, and the VM must match the tree walker charge for
   charge. *)
let test_energy_mode_run () =
  let machine ~seed ~failure =
    Machine.create ~seed ~failure
      ~capacitor:(Capacitor.create ~capacity_nj:3_000. ~on_level_nj:2_000.)
      ~harvester:(Harvester.constant 0.05) ()
  in
  let prog = Lang.Parser.program Apps.Uni.temp_source in
  List.iter
    (fun policy ->
      let failure = Failure.Energy_driven in
      let vm = Vm.compile ~policy (machine ~seed:1 ~failure) prog in
      let tr = observe_tree ~machine prog policy ~failure ~seed:1 in
      let vr = observe_vm vm ~failure ~seed:1 in
      let where = ctx_name policy failure 1 in
      (match tr.result with
      | Ok one -> checkb (where ^ ": power failures") true (one.Expkit.Run.pf > 0)
      | Error e -> Alcotest.failf "%s: %s" where e);
      checkb (where ^ ": energy-mode run") true (tr = vr))
    block_policies

(* {1 Generated programs (qcheck)} *)

(* The conformance judge's check 4 shadows every run on the VM; a
   clean verdict on generated programs means zero vm-diverge
   violations across all variants and every strided boundary
   schedule. *)
let qcheck_config = { Conformance.Judge.default_config with budget = 8 }

let prop_generated_programs =
  QCheck.Test.make ~count:25 ~name:"vm matches tree on generated programs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Conformance.Gen.generate ~seed in
      let out = Conformance.Judge.judge ~config:qcheck_config case in
      List.for_all
        (fun v -> v.Conformance.Judge.vkind <> "vm-diverge")
        out.Conformance.Judge.violations)

let () =
  Alcotest.run "vm"
    [
      ( "differential",
        [
          Alcotest.test_case "catalog apps x runtimes x failures x seeds" `Quick
            test_catalog_matches;
          Alcotest.test_case "shipped example programs" `Quick test_examples_match;
          Alcotest.test_case "fuzz corpus programs" `Quick test_fuzz_corpus_matches;
          Alcotest.test_case "Nth_charge boundary sweep" `Quick test_nth_charge_sweep;
          QCheck_alcotest.to_alcotest prop_generated_programs;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "errors inside a block" `Quick test_errors_inside_blocks;
          Alcotest.test_case "step limit inside a block" `Quick test_step_limit_inside_block;
          Alcotest.test_case "metered run" `Quick test_metered_run;
          Alcotest.test_case "metered counts = per-op oracle" `Quick test_metered_counts_per_op;
          Alcotest.test_case "traced run" `Quick test_traced_run;
          Alcotest.test_case "capacitor sample inside a block" `Quick test_sample_inside_block;
          Alcotest.test_case "energy-mode run" `Quick test_energy_mode_run;
        ] );
      ( "operands",
        [ Alcotest.test_case "LEA ranges and DMA counts checked" `Quick test_operand_bounds ] );
    ]
