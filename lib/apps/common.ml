open Platform

type variant = Alpaca | Ink | Easeio | Easeio_op

let variant_name = function
  | Alpaca -> "Alpaca"
  | Ink -> "InK"
  | Easeio -> "EaseIO"
  | Easeio_op -> "EaseIO/Op"

let all_variants = [ Alpaca; Ink; Easeio; Easeio_op ]

let policy_of = function
  | Alpaca -> Lang.Interp.Alpaca
  | Ink -> Lang.Interp.Ink
  | Easeio | Easeio_op -> Lang.Interp.Easeio

let lea_fir_seg : string * Lang.Interp.io_impl =
  ( "Lea_fir_seg",
    fun m args ->
      match args with
      | [ input; Val in_off; coeffs; Val taps; output; Val out_off; Val samples ] ->
          Lang.Interp.lea_fir "Lea_fir_seg" m ~input ~in_off ~coeffs ~taps ~output ~out_off
            ~samples;
          0
      | _ -> Lang.Ast.error "Lea_fir_seg(input, in_off, coeffs, taps, output, out_off, samples)" )

type interp = Tree_walk | Bytecode

let interp_name = function Tree_walk -> "tree" | Bytecode -> "vm"

(* One compiled arena per (program, variant, ablations) per domain.
   Keyed per-domain so parallel sweeps (Expkit.Pool) never share a
   machine; Vm.reset recycles the arena between seeds. *)
let vm_arenas :
    (string * variant * bool option * bool option, Vm.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* This domain's arena for the key, compiled on first use and reset for
   a fresh run after that. *)
let arena ~src ?ablate_regions ?ablate_semantics variant ~failure ~seed =
  let arenas = Domain.DLS.get vm_arenas in
  let key = (src, variant, ablate_regions, ablate_semantics) in
  match Hashtbl.find_opt arenas key with
  | Some vm ->
      Vm.reset ~seed ~failure vm;
      vm
  | None ->
      let vm =
        Vm.compile ~policy:(policy_of variant) ~extra_io:[ lea_fir_seg ] ?ablate_regions
          ?ablate_semantics
          (Machine.create ~seed ~failure ())
          (Lang.Parser.program src)
      in
      Hashtbl.add arenas key vm;
      vm

let run_ir ~src ?(setup = fun _ -> ()) ?check ?ablate_regions ?ablate_semantics
    ?(interp = Bytecode) ?sink ?meter ?probe variant ~failure ~seed =
  (* linking charges nothing and emits nothing, so observers attach after it *)
  let m, linked, run =
    match interp with
    | Tree_walk ->
        let m = Machine.create ~seed ~failure () in
        let t =
          Lang.Interp.build ~policy:(policy_of variant) ~extra_io:[ lea_fir_seg ] ?check
            ?ablate_regions ?ablate_semantics m (Lang.Parser.program src)
        in
        (m, t, fun () -> Lang.Interp.run t)
    | Bytecode ->
        let vm = arena ~src ?ablate_regions ?ablate_semantics variant ~failure ~seed in
        (Vm.machine vm, Vm.linked vm, fun () -> Vm.run ?check vm)
  in
  Option.iter (Machine.set_sink m) sink;
  Option.iter (Machine.set_meter m) meter;
  setup linked;
  let o = run () in
  Option.iter (fun f -> f m) probe;
  Expkit.Run.of_outcome m o

let flash m (loc : Loc.t) values = Memory.load (Machine.mem m loc.Loc.space) loc.Loc.addr values

(* {1 Sessions}

   A session exposes an app as raw engine inputs (app, hooks, machine)
   instead of a one-shot [run], so snapshot-based drivers — the
   prefix-resume campaign path, the reboot-space explorer — can push
   it through the {!Kernel.Engine} stepper and fork its state at
   boundaries. [ses_save]/[ses_finish] cover the state and bookkeeping
   that live OUTSIDE the machine: the radio's receiver log and, when
   metered, the VM's dispatch counters. The machine starts under
   [No_failures]; drivers steer it with {!Platform.Machine.set_failure}
   after restoring a snapshot. *)

type session = {
  ses_machine : Machine.t;
  ses_app : Kernel.Task.app;
  ses_hooks : Kernel.Engine.hooks;
  ses_cur_slot : int option;  (* pre-allocated task-pointer slot (arenas) *)
  ses_begin : unit -> unit;
      (* latch metering after observers are attached, before the engine *)
  ses_save : unit -> unit -> unit;
      (* capture extra-machine state (radio log, VM counters); returns
         the restorer to pair with [Engine.restore] *)
  ses_finish : unit -> unit;  (* end-of-run flush (VM dispatch counts) *)
  ses_radio : Periph.Radio.t;  (* the receiver log, outside the machine *)
}

(* Session builder for task-language apps: always the bytecode VM (one
   recycled arena per (program, variant) per domain — sequential
   snapshot drivers hold exactly one live session per arena key). *)
let session_ir ~src ?(setup = fun _ -> ()) ?check () ?ablate_regions ?ablate_semantics
    variant ~seed =
  let vm =
    arena ~src ?ablate_regions ?ablate_semantics variant ~failure:Failure.No_failures ~seed
  in
  setup (Vm.linked vm);
  let app, hooks, cur_slot = Vm.prepare ?check vm in
  let m = Vm.machine vm in
  {
    ses_machine = m;
    ses_app = app;
    ses_hooks = hooks;
    ses_cur_slot = Some cur_slot;
    ses_begin = (fun () -> Vm.begin_metered vm);
    ses_save =
      (fun () ->
        let radio = Periph.Radio.snapshot (Vm.radio vm) in
        let counts = if Machine.metered m then Some (Vm.save_counts vm) else None in
        fun () ->
          Periph.Radio.restore (Vm.radio vm) radio;
          Option.iter (Vm.restore_counts vm) counts);
    ses_finish = (fun () -> Vm.flush_counts vm);
    ses_radio = Vm.radio vm;
  }

type spec = {
  app_name : string;
  tasks : int;
  io_functions : int;
  nv_volatile : string list;
  run :
    ?interp:interp ->
    ?sink:Trace.Event.sink ->
    ?meter:Obs.Sheet.t ->
    ?probe:(Machine.t -> unit) ->
    variant ->
    failure:Failure.spec ->
    seed:int ->
    Expkit.Run.one;
  session :
    (?ablate_regions:bool -> ?ablate_semantics:bool -> variant -> seed:int -> session) option;
      (** stepper-compatible access for snapshot-based drivers; [None]
          when the app cannot (yet) expose one *)
}
