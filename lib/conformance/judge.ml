open Lang
open Platform

type config = {
  budget : int;
  machine_seed : int;
  ablate_regions : bool;
  ablate_semantics : bool;
  check_vm : bool;
}

let default_config =
  {
    budget = 24;
    machine_seed = 7;
    ablate_regions = false;
    ablate_semantics = false;
    check_vm = true;
  }

type violation = { vkind : string; variant : string; schedule : string; detail : string }

let key v = v.vkind ^ "/" ^ v.variant

let describe v =
  let where =
    match (v.variant, v.schedule) with
    | "", "" -> ""
    | va, "" -> Printf.sprintf " [%s]" va
    | va, s -> Printf.sprintf " [%s %s]" va s
  in
  Printf.sprintf "%s%s: %s" v.vkind where v.detail

let violation_to_json v =
  Trace.Json.Obj
    [
      ("kind", Trace.Json.String v.vkind);
      ("variant", Trace.Json.String v.variant);
      ("schedule", Trace.Json.String v.schedule);
      ("detail", Trace.Json.String v.detail);
    ]

type outcome = {
  diag_codes : string list;
  violations : violation list;
  runs : int;
  boundaries_total : int;
  boundaries_run : int;
  strided : bool;
  tainted_nv : string list;
  unsafe_baseline : (string * int) list;
}

let variants = [ Interp.Plain; Interp.Alpaca; Interp.Ink; Interp.Easeio ]

(* The runtime's legal (semantics, decision, reason) vocabulary at DMA
   sites — the only guarded sites the task-language interpreter
   narrates (calls compile to inline guard code). Anything else is a
   runtime bug. *)
let dma_reason_ok sem (decision : Trace.Event.decision) reason =
  match (sem, decision) with
  | Trace.Event.Always, (Trace.Event.Exec | Trace.Event.Replay) -> reason = "always"
  | Trace.Event.Always, Trace.Event.Skip -> false (* also caught by the Always oracle *)
  | Trace.Event.Single, Trace.Event.Skip -> reason = "done"
  | Trace.Event.Single, (Trace.Event.Exec | Trace.Event.Replay) ->
      List.mem reason [ "first"; "dep"; "force" ]
  | Trace.Event.Timely _, _ -> List.mem reason [ "first"; "dep"; "force"; "fresh"; "expired" ]

(* Streaming sink: collect DMA-site vocabulary violations. *)
let dma_reason_watch () =
  let bad = ref [] in
  let sink (e : Trace.Event.t) =
    match e.payload with
    | Trace.Event.Io { site; kind = "dma"; sem; decision; reason } ->
        if not (dma_reason_ok sem decision reason) then
          bad :=
            Printf.sprintf "%s: %s %s/%s" site (Trace.Event.sem_name sem)
              (Trace.Event.decision_name decision)
              reason
            :: !bad
    | _ -> ()
  in
  (sink, fun () -> List.rev !bad)

(* Boundary probes: every charge index when they fit the budget,
   otherwise a stride covering [1, charges] including the last
   boundary. *)
let probes ~charges ~budget =
  if charges <= 0 then []
  else if charges <= budget then List.init charges (fun i -> i + 1)
  else
    let stride = charges / budget in
    List.sort_uniq compare (List.init budget (fun i -> 1 + (i * stride)) @ [ charges ])

type golden = { g_nv : (string * int array) list; g_io : (string * int) list; g_charges : int }

let judge ?(stop_early = false) ?(config = default_config) ?vm_program (case : Gen.case) =
  let prog = case.Gen.prog in
  let violations = ref [] in
  let runs = ref 0 in
  let boundaries_total = ref 0 and boundaries_run = ref 0 and strided = ref false in
  let unsafe = Hashtbl.create 4 in
  let tainted_names = ref [] in
  let exception Done in
  let push v =
    violations := v :: !violations;
    if stop_early then raise Done
  in
  let vio ?(variant = "") ?(schedule = "") vkind detail = { vkind; variant; schedule; detail } in
  let _, actx = Pass.run_pipeline Pass.analysis_passes prog in
  let diags = Diagnostics.contents actx.Pass.bag in
  let codes = List.sort_uniq compare (List.map (fun d -> d.Diagnostics.code) diags) in
  let errs =
    List.sort_uniq compare
      (List.filter_map
         (fun d -> if Diagnostics.is_error d then Some d.Diagnostics.code else None)
         diags)
  in
  (try
     (match case.Gen.intent with
     | Gen.Expect code ->
         if errs <> [ code ] then
           push
             (vio "intent"
                (Printf.sprintf "expected exactly %s, analyses reported [%s]" code
                   (String.concat "; " errs)));
         raise Done
     | Gen.Clean ->
         if errs <> [] then begin
           push (vio "errors" ("analyses reported [" ^ String.concat "; " errs ^ "]"));
           raise Done
         end);
     (* check 2: compiler identities *)
     (match Parser.parse (Pretty.program_to_string prog) with
     | p' ->
         if Ast.strip p' <> Ast.strip prog then
           push (vio "roundtrip" "source pretty/parse round-trip is not the identity")
     | exception Parser.Error (_, msg) ->
         push (vio "roundtrip" ("pretty-printed source does not re-parse: " ^ msg)));
     let compiled, cctx = Pass.run_pipeline Pass.compile_passes prog in
     let cds = Diagnostics.contents cctx.Pass.bag in
     if Diagnostics.has_errors cds then begin
       let cerrs =
         List.sort_uniq compare
           (List.filter_map
              (fun d -> if Diagnostics.is_error d then Some d.Diagnostics.code else None)
              cds)
       in
       push (vio "errors" ("compile reported [" ^ String.concat "; " cerrs ^ "]"));
       raise Done
     end;
     (match Parser.parse (Pretty.program_to_string compiled) with
     | exception Parser.Error (_, msg) ->
         push (vio "roundtrip" ("compiled output does not re-parse: " ^ msg))
     | relowered -> (
         let recompiled, rctx = Pass.run_pipeline Pass.compile_passes relowered in
         if Diagnostics.has_errors (Diagnostics.contents rctx.Pass.bag) then
           push (vio "fixed-point" "re-compiling the compiled output reports errors")
         else if Ast.strip recompiled <> Ast.strip relowered then
           push (vio "fixed-point" "compile is not a fixed point on its own output")));
     (* check 3: differential execution *)
     let info = Taint.analyze prog in
     let tainted = Taint.tainted_nv prog info in
     tainted_names := tainted;
     let counts_stable = (not info.Taint.io_under_taint) && not info.Taint.divergent in
     let war_free = List.for_all (fun t -> Analysis.war_vars prog t = []) prog.Ast.p_tasks in
     let nv_names =
       List.filter_map
         (fun d ->
           if d.Ast.v_space = Ast.Nv && not (List.mem d.Ast.v_name tainted) then
             Some (d.Ast.v_name, d.Ast.v_words)
           else None)
         prog.Ast.p_globals
     in
     let enforce_nv = function
       | Interp.Easeio -> true
       | Interp.Alpaca | Interp.Ink -> not info.Taint.has_dma
       | Interp.Plain -> (not info.Taint.has_dma) && war_free
     in
     let first_diff a b =
       (* both are name-keyed value arrays over the same names *)
       List.fold_left2
         (fun acc (n, xs) (_, ys) ->
           match acc with
           | Some _ -> acc
           | None ->
               let d = ref None in
               Array.iteri (fun i x -> if !d = None && x <> ys.(i) then d := Some (n, i, x, ys.(i))) xs;
               !d)
         None a b
     in
     let run_tree ~variant ~failure ~sink =
       let m = Machine.create ~seed:config.machine_seed ~failure () in
       (match sink with Some s -> Machine.set_sink m s | None -> ());
       let t =
         Interp.build ~policy:variant ~ablate_regions:config.ablate_regions
           ~ablate_semantics:config.ablate_semantics m prog
       in
       let o = Interp.run t in
       (m, t, o)
     in
     (* check 4: bytecode-VM equivalence. One compiled arena per variant
        is recycled across the whole sweep with [Vm.reset] — exactly the
        production configuration — and every tree-walker run is shadowed
        by a VM run from power on under the same schedule, which must
        match it observably: crash message, outcome and metrics summary,
        charge count, event counters, committed state of every declared
        global, and the trace-visible I/O decision sequence. A
        [vm-diverge] finding therefore points at the VM alone. *)
     let vm_arena : (Interp.policy, Vm.t) Hashtbl.t = Hashtbl.create 4 in
     let vm_for variant =
       match Hashtbl.find_opt vm_arena variant with
       | Some vm -> vm
       | None ->
           let vm =
             Vm.compile ~policy:variant ~ablate_regions:config.ablate_regions
               ~ablate_semantics:config.ablate_semantics
               (Machine.create ~seed:config.machine_seed ~failure:Failure.No_failures ())
               (Option.value vm_program ~default:prog)
           in
           Hashtbl.add vm_arena variant vm;
           vm
     in
     let decision_recorder () =
       let log = ref [] in
       let sink (e : Trace.Event.t) =
         match e.payload with
         | Trace.Event.Io { site; kind; sem; decision; reason } ->
             log :=
               ( site,
                 kind,
                 Trace.Event.sem_name sem,
                 Trace.Event.decision_name decision,
                 reason )
               :: !log
         | _ -> ()
       in
       (sink, fun () -> List.rev !log)
     in
     let all_globals read =
       List.map
         (fun d -> (d.Ast.v_name, Array.init d.Ast.v_words (read d.Ast.v_name)))
         prog.Ast.p_globals
     in
     let run_one ~variant ~failure ~sink =
       incr runs;
       if not config.check_vm then run_tree ~variant ~failure ~sink
       else begin
         let vname = Interp.policy_name variant in
         let schedule =
           match failure with Failure.No_failures -> "" | f -> Failure.to_string f
         in
         let diverge detail = push (vio ~variant:vname ~schedule "vm-diverge" detail) in
         let rec_t, decisions_t = decision_recorder () in
         let tree_sink e =
           rec_t e;
           match sink with Some s -> s e | None -> ()
         in
         let tree =
           try Ok (run_tree ~variant ~failure ~sink:(Some tree_sink))
           with Ast.Error msg -> Error msg
         in
         incr runs;
         let rec_v, decisions_v = decision_recorder () in
         let vmr =
           try
             let vm = vm_for variant in
             Vm.reset ~seed:config.machine_seed ~failure vm;
             Machine.set_sink (Vm.machine vm) rec_v;
             Ok (vm, Vm.run vm)
           with Ast.Error msg -> Error msg
         in
         (match (tree, vmr) with
         | Error a, Error b ->
             if a <> b then
               diverge (Printf.sprintf "tree crashed with %S, vm with %S" a b)
         | Ok _, Error b -> diverge (Printf.sprintf "vm crashed (%s), tree did not" b)
         | Error a, Ok _ -> diverge (Printf.sprintf "tree crashed (%s), vm did not" a)
         | Ok (m, t, o), Ok (vm, vo) ->
             let vm_m = Vm.machine vm in
             if Expkit.Run.of_outcome m o <> Expkit.Run.of_outcome vm_m vo then
               diverge "run summaries (outcome, attribution, I/O counts) differ";
             if Machine.charges m <> Machine.charges vm_m then
               diverge
                 (Printf.sprintf "charges: tree %d, vm %d" (Machine.charges m)
                    (Machine.charges vm_m));
             if Machine.events m <> Machine.events vm_m then diverge "event counters differ";
             (match
                first_diff (all_globals (Interp.read_global t))
                  (all_globals (Interp.read_global (Vm.linked vm)))
              with
             | Some (n, i, exp, got) ->
                 diverge (Printf.sprintf "%s[%d] = %d under tree, %d under vm" n i exp got)
             | None -> ());
             if decisions_t () <> decisions_v () then diverge "I/O decision traces differ");
         match tree with Ok r -> r | Error msg -> raise (Ast.Error msg)
       end
     in
     let capture_nv t = List.map (fun (n, w) -> (n, Array.init w (Interp.read_global t n))) nv_names in
     let goldens =
       List.map
         (fun variant ->
           let vname = Interp.policy_name variant in
           match run_one ~variant ~failure:Failure.No_failures ~sink:None with
           | exception Ast.Error msg ->
               push (vio ~variant:vname "crash" ("continuous run crashed: " ^ msg));
               (variant, None)
           | m, t, o ->
               if not o.Kernel.Engine.completed then begin
                 push (vio ~variant:vname "golden" "continuous-power run did not complete");
                 (variant, None)
               end
               else
                 ( variant,
                   Some
                     {
                       g_nv = capture_nv t;
                       g_io = List.sort compare (Kernel.Golden.io_executions m);
                       g_charges = Machine.charges m;
                     } ))
         variants
     in
     (* cross-variant: continuous runs must agree with Plain on every
        schedule-independent NV global (except where DMA legitimately
        bypasses a baseline manager), and on non-DMA I/O counts when
        counts are schedule-independent. [io:DMA] is excluded: EaseIO's
        region privatization performs extra transfers by design — that
        is the paper's overhead story, not a conformance bug. *)
     let stable_io io = List.filter (fun (k, _) -> k <> "io:DMA") io in
     (match List.assoc Interp.Plain goldens with
     | None -> ()
     | Some plain_g ->
         List.iter
           (fun (variant, g) ->
             match g with
             | None -> ()
             | Some g when variant <> Interp.Plain -> (
                 let vname = Interp.policy_name variant in
                 (match first_diff plain_g.g_nv g.g_nv with
                 | Some (n, i, exp, got) ->
                     if enforce_nv variant then
                       push
                         (vio ~variant:vname "cross-variant-nv"
                            (Printf.sprintf "%s[%d] = %d under plain, %d under %s" n i exp got
                               vname))
                     else
                       Hashtbl.replace unsafe vname
                         (1 + Option.value ~default:0 (Hashtbl.find_opt unsafe vname))
                 | None -> ());
                 let g_io = stable_io g.g_io and plain_io = stable_io plain_g.g_io in
                 if counts_stable && g_io <> plain_io then
                   match
                     List.find_opt (fun (k, n) -> List.assoc_opt k plain_io <> Some n) g_io
                   with
                   | Some (k, n) ->
                       push
                         (vio ~variant:vname "cross-variant-io"
                            (Printf.sprintf "%s executed %d times under %s, %d under plain" k n
                               vname
                               (Option.value ~default:0 (List.assoc_opt k plain_io))))
                   | None -> push (vio ~variant:vname "cross-variant-io" "I/O count sets differ"))
             | Some _ -> ())
           goldens);
     (* per-variant boundary sweep *)
     List.iter
       (fun (variant, g) ->
         match g with
         | None -> ()
         | Some g ->
             let vname = Interp.policy_name variant in
             let ps = probes ~charges:g.g_charges ~budget:config.budget in
             boundaries_total := !boundaries_total + g.g_charges;
             if List.length ps < g.g_charges then strided := true;
             List.iter
               (fun k ->
                 incr boundaries_run;
                 let failure = Failure.Nth_charge k in
                 let schedule = Failure.to_string failure in
                 let skip_sink, skipped = Faultkit.Oracle.always_skip_watch () in
                 let reason_sink, bad_reasons = dma_reason_watch () in
                 let sink e =
                   skip_sink e;
                   reason_sink e
                 in
                 match run_one ~variant ~failure ~sink:(Some sink) with
                 | exception Ast.Error msg ->
                     push (vio ~variant:vname ~schedule "crash" ("run crashed: " ^ msg))
                 | m, t, o ->
                     if o.Kernel.Engine.gave_up then
                       push
                         (vio ~variant:vname ~schedule "livelock"
                            ("no forward progress in task "
                            ^ Option.value ~default:"?" o.Kernel.Engine.stuck_task))
                     else begin
                       (match first_diff g.g_nv (capture_nv t) with
                       | Some (n, i, exp, got) ->
                           if enforce_nv variant then
                             push
                               (vio ~variant:vname ~schedule "nv-state"
                                  (Printf.sprintf "%s[%d] = %d on continuous power, %d under %s" n
                                     i exp got schedule))
                           else
                             Hashtbl.replace unsafe vname
                               (1 + Option.value ~default:0 (Hashtbl.find_opt unsafe vname))
                       | None -> ());
                       (* an unprotected run may take another branch
                          after a reboot, so the floor holds only where
                          its NV state must match too *)
                       (if counts_stable && enforce_nv variant then
                          let io = Kernel.Golden.io_executions m in
                          List.iter
                            (fun (kind, n) ->
                              let got = Option.value ~default:0 (List.assoc_opt kind io) in
                              if got < n then
                                push
                                  (vio ~variant:vname ~schedule "io-floor"
                                     (Printf.sprintf "%s executed %d times, golden run needs >= %d"
                                        kind got n)))
                            g.g_io);
                       (match skipped () with
                       | [] -> ()
                       | sites ->
                           push
                             (vio ~variant:vname ~schedule "always-skip"
                                ("Always I/O skipped at " ^ String.concat ", " sites)));
                       match bad_reasons () with
                       | [] -> ()
                       | bad ->
                           push
                             (vio ~variant:vname ~schedule "dma-reason"
                                ("illegal DMA decision: " ^ String.concat "; " bad))
                     end)
               ps)
       goldens
   with Done -> ());
  {
    diag_codes = codes;
    violations = List.rev !violations;
    runs = !runs;
    boundaries_total = !boundaries_total;
    boundaries_run = !boundaries_run;
    strided = !strided;
    tainted_nv = !tainted_names;
    unsafe_baseline =
      List.filter_map
        (fun v ->
          let n = Interp.policy_name v in
          Option.map (fun c -> (n, c)) (Hashtbl.find_opt unsafe n))
        variants;
  }
