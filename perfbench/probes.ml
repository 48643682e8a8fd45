(* Per-layer probes for the traced run: short measurements that call
   one layer's public functions directly, each inside a span, so a
   layer's cost can be read apart from the calls that bury it in a
   workload op. *)

open Env
module S = Perfbench.Spans
module C = Apps.Common

let paper = Expkit.Experiments.paper_failures

(* The task-language sources of the catalog apps (Weather is
   hand-written OCaml and has no source). *)
let catalog_sources =
  [
    ("LEA", Apps.Uni.lea_source);
    ("DMA", Apps.Uni.dma_source);
    ("Temp.", Apps.Uni.temp_source);
    ("FIR filter", Apps.Fir.source ~exclude_coefs:false);
  ]

let median_us xs = Perfbench.Stats.median xs *. 1e6
let mean_ms xs = Perfbench.Stats.mean xs *. 1e3

(* lang front-end and VM lowering, then the reset/run split of one
   arena over [runs] paper-failure seeds per program. *)
let lang_vm spans ~seed ~runs srcs =
  let rng = Random.State.make [| seed; 0x7072 |] in
  let parse = ref [] and passes = ref [] and compile = ref [] in
  let reset = ref [] and run = ref [] in
  let charges = ref 0 and ops = ref 0 and op_runs = ref 0 in
  let sum_vm_ops snap =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix:"vm/op/" k then acc + v else acc)
      0 snap.Obs.Snapshot.counters
  in
  List.iter
    (fun (_, src) ->
      let prog, dt = time (fun () -> S.with_ spans "lang.Parser.program" (fun _ -> Lang.Parser.program src)) in
      parse := dt :: !parse;
      let (_ : Lang.Ast.program * Lang.Pass.ctx), dt =
        time (fun () ->
            S.with_ spans "lang.Pass.run_pipeline" (fun _ ->
                Lang.Pass.run_pipeline Lang.Pass.compile_passes prog))
      in
      passes := dt :: !passes;
      let m = Platform.Machine.create ~seed:1 ~failure:paper () in
      let vm, dt =
        time (fun () ->
            S.with_ spans "vm.Vm.compile" (fun _ ->
                Vm.compile ~policy:Lang.Interp.Easeio ~extra_io:[ C.lea_fir_seg ] m prog))
      in
      compile := dt :: !compile;
      for _ = 1 to runs do
        let seed = Random.State.bits rng in
        let (), dt = time (fun () -> S.with_ spans "vm.Vm.reset" (fun _ -> Vm.reset ~seed ~failure:paper vm)) in
        reset := dt :: !reset;
        let (_ : Kernel.Engine.outcome), dt =
          time (fun () -> S.with_ spans "vm.Vm.run" (fun _ -> Vm.run vm))
        in
        run := dt :: !run;
        charges := !charges + Platform.Machine.charges (Vm.machine vm)
      done;
      (* dispatch counts need a meter, which costs time: count them on
         separate runs *)
      for _ = 1 to 10 do
        let sheet = Obs.Sheet.create () in
        Vm.reset ~seed:(Random.State.bits rng) ~failure:paper vm;
        Platform.Machine.set_meter (Vm.machine vm) sheet;
        ignore (Vm.run vm);
        ops := !ops + sum_vm_ops (Obs.Snapshot.of_sheet sheet);
        incr op_runs
      done)
    srcs;
  let nruns = float_of_int (List.length !run) in
  let run_s = List.fold_left ( +. ) 0. !run in
  let ops_per_run = float_of_int !ops /. float_of_int !op_runs in
  let charges_per_run = float_of_int !charges /. nruns in
  [
    ("lang.parse_ms", mean_ms !parse);
    ("lang.passes_ms", mean_ms !passes);
    ("vm.compile_ms", mean_ms !compile);
    ("vm.reset_us", median_us !reset);
    ("vm.run_us", median_us !run);
    ("vm.ops_per_run", ops_per_run);
    ("vm.ns_per_op", run_s /. nruns *. 1e9 /. ops_per_run);
    ("platform.charges_per_run", charges_per_run);
    ("platform.ns_per_charge", run_s /. nruns *. 1e9 /. charges_per_run);
  ]

(* I/O decisions per run of the core runtime, from metered runs. *)
let core_io spans ~seed ~runs cells =
  let rng = Random.State.make [| seed; 0x696f |] in
  let snap = ref Obs.Snapshot.zero and n = ref 0 in
  List.iter
    (fun ((spec : C.spec), v) ->
      for _ = 1 to runs do
        let sheet = Obs.Sheet.create () in
        ignore
          (S.with_ spans "apps.run" (fun _ ->
               spec.run ~meter:sheet v ~failure:paper ~seed:(Random.State.bits rng)));
        snap := Obs.Snapshot.merge !snap (Obs.Snapshot.of_sheet sheet);
        incr n
      done)
    cells;
  let per k = float_of_int (Obs.Snapshot.counter !snap k) /. float_of_int !n in
  [ ("core.io_exec", per "io/exec"); ("core.io_replay", per "io/replay"); ("core.io_skip", per "io/skip") ]

(* Host cost of attaching the campaign observers (a metrics sheet and
   an attribution collector) to one failure-schedule run. Metered and
   plain runs of each schedule alternate, so a drift in host speed
   falls on both sides alike. *)
let obs_meter spans (spec : C.spec) v ~boundaries =
  let stride = max 1 (boundaries / 200) in
  let plain = ref 0. and metered = ref 0. and n = ref 0 in
  for i = 0 to (boundaries / stride) - 1 do
    let failure = Platform.Failure.Nth_charge (1 + (i * stride)) in
    let run ?meter ?sink () = S.with_ spans "apps.run" (fun _ -> spec.run ?meter ?sink v ~failure ~seed:1) in
    let (_ : Expkit.Run.one), dt = time (fun () -> run ()) in
    plain := !plain +. dt;
    let sheet = Obs.Sheet.create () and attr = Obs.Attr.create () in
    let (_ : Expkit.Run.one), dt = time (fun () -> run ~meter:sheet ~sink:(Obs.Attr.sink attr) ()) in
    metered := !metered +. dt;
    incr n
  done;
  (!metered -. !plain) /. float_of_int !n *. 1e6

(* Checkpoint and restore through an app session and the engine
   stepper, at every attempt top of one clean run. *)
let checkpoint_restore spans (spec : C.spec) v =
  match spec.session with
  | None -> (0., 0.)
  | Some mk ->
      let ses = mk v ~seed:1 in
      ses.C.ses_begin ();
      let s =
        Kernel.Engine.start ~hooks:ses.C.ses_hooks ?cur_slot:ses.C.ses_cur_slot ses.C.ses_machine
          ses.C.ses_app
      in
      let cps = ref [] and cp_t = ref [] in
      let on_attempt s =
        let cp, dt =
          time (fun () -> S.with_ spans "kernel.Engine.checkpoint" (fun _ -> Kernel.Engine.checkpoint s))
        in
        cps := cp :: !cps;
        cp_t := dt :: !cp_t
      in
      let rec go () =
        match Kernel.Engine.run_until_boundary ~on_attempt s with
        | Kernel.Engine.Paused ->
            Kernel.Engine.resume s;
            go ()
        | Kernel.Engine.Finished _ -> ()
      in
      go ();
      ses.C.ses_finish ();
      let rs_t =
        List.map
          (fun cp ->
            snd (time (fun () -> S.with_ spans "kernel.Engine.restore" (fun _ -> Kernel.Engine.restore s cp))))
          !cps
      in
      (median_us !cp_t, median_us rs_t)

let gc_per_op ~ops (w0, c0) (w1, c1) =
  [
    ("gc.minor_words_per_op", (w1 -. w0) /. float_of_int (max 1 ops));
    ("gc.major_collections", float_of_int (c1 - c0));
  ]

(* Generator and judge cost per fuzz case, and the shrinker's cost on
   the first clean case that an ablated pipeline breaks (the shipped
   pipeline gives it nothing to shrink). Times in ms. *)
let conformance spans ~seed =
  let module G = Conformance.Gen in
  let module J = Conformance.Judge in
  let rng = Random.State.make [| seed; 0x636e |] in
  let gen = ref [] and judge = ref [] in
  for _ = 1 to 8 do
    let case, dt =
      time (fun () ->
          S.with_ spans "conformance.Gen.generate" (fun _ -> G.generate ~seed:(Random.State.bits rng)))
    in
    gen := dt :: !gen;
    let (_ : J.outcome), dt =
      time (fun () -> S.with_ spans "conformance.Judge.judge" (fun _ -> J.judge case))
    in
    judge := dt :: !judge
  done;
  let config = { J.default_config with J.ablate_regions = true } in
  let violations case = (J.judge ~stop_early:true ~config case).J.violations in
  let rec find n =
    if n = 0 then None
    else
      let case = G.generate ~seed:(Random.State.bits rng) in
      match case.G.intent with
      | G.Clean when violations case <> [] -> Some case
      | _ -> find (n - 1)
  in
  let shrink =
    match find 60 with
    | None -> 0.
    | Some case ->
        let keys = List.map J.key (violations case) in
        let fails p =
          List.exists (fun v -> List.mem (J.key v) keys) (violations { case with G.prog = p })
        in
        snd
          (time (fun () ->
               S.with_ spans "conformance.Shrink.minimize" (fun _ ->
                   Conformance.Shrink.minimize ~max_checks:40 ~valid:G.valid ~fails case.G.prog)))
  in
  (mean_ms !gen, mean_ms !judge, shrink *. 1e3)
