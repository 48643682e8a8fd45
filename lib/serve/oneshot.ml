(* The one-shot document builders the server memoizes and streams.

   Byte-identity with the CLI is by construction, not by testing luck:
   [easeio run --json] prints [run_doc] through the same canonical
   emitter, and a faults response is [Campaign.to_json] over cells
   produced by the same [Campaign.run_cell] calls [Campaign.run]
   makes — the server only changes *where* cells are computed, never
   how, and ships the resulting document bytes verbatim. *)

module Json = Trace.Json

(* One metered run of [src] on [interp] (the bytecode VM by default):
   the machine, its sheet and the engine outcome. [easeio run] prints
   its text report from these. *)
let run_metered ?(interp = Apps.Common.Bytecode) ~policy ~failure ~seed src =
  let m = Platform.Machine.create ~seed ~failure () in
  let sheet = Obs.Sheet.create () in
  Platform.Machine.set_meter m sheet;
  let prog = Lang.Parser.program src in
  let extra_io = [ Apps.Common.lea_fir_seg ] in
  let o =
    match interp with
    | Apps.Common.Tree_walk -> Lang.Interp.run (Lang.Interp.build ~policy ~extra_io m prog)
    | Apps.Common.Bytecode -> Vm.run (Vm.compile ~policy ~extra_io m prog)
  in
  (m, sheet, o)

(* Exactly the [easeio run --json] document, on either executor. *)
let run_doc ?interp ~policy ~failure ~seed src =
  let m, sheet, o = run_metered ?interp ~policy ~failure ~seed src in
  let io = Kernel.Golden.io_executions m in
  Json.Obj
    [
      ("runtime", Json.String (Lang.Interp.policy_name policy));
      ("failure", Json.String (Platform.Failure.to_string failure));
      ("seed", Json.Int seed);
      ("completed", Json.Bool o.Kernel.Engine.completed);
      ("gave_up", Json.Bool o.Kernel.Engine.gave_up);
      ( "stuck_task",
        match o.Kernel.Engine.stuck_task with
        | Some t -> Json.String t
        | None -> Json.Null );
      ("power_failures", Json.Int o.Kernel.Engine.power_failures);
      ("total_time_us", Json.Int o.Kernel.Engine.total_time_us);
      ("energy_nj", Json.Float o.Kernel.Engine.energy_nj);
      ("metrics", Kernel.Metrics.to_json o.Kernel.Engine.metrics);
      ( "obs",
        Obs.Snapshot.to_json
          (Obs.Snapshot.of_sheet ~events:(Platform.Machine.events m) sheet) );
      ("io_executions", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) io));
    ]

(* One campaign cell, computed exactly as [Campaign.run] computes it
   (resume on, sequential inside the cell: the server's parallelism is
   across cells and requests, and cell contents are jobs-invariant
   anyway). *)
let faults_cell ~sweep ~seed spec variant =
  Faultkit.Campaign.run_cell ~jobs:1 ~resume:true ~sweep ~seed spec variant

(* Reassemble a full campaign report from per-variant cells (in the
   caller's variant order — the order [Campaign.run] would have used). *)
let faults_doc ~app ~sweep ~seed cells =
  Json.to_string
    (Faultkit.Campaign.to_json { Faultkit.Campaign.app; sweep; seed; cells })

let fuzz_doc options =
  Json.to_string (Conformance.Fuzz.to_json (Conformance.Fuzz.run options))

let explore_doc ~depth ?max_states ~prune ~ablate_regions ~ablate_semantics ~seed spec runtime =
  Json.to_string
    (Explore.to_json
       (Explore.explore ~depth ?max_states ~prune ~ablate_regions ~ablate_semantics spec runtime
          ~seed))
