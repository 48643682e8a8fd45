(** Shared plumbing for the evaluation applications. *)

open Platform

type variant =
  | Alpaca
  | Ink
  | Easeio
  | Easeio_op  (** EaseIO with the Exclude annotation applied ("EaseIO/Op") *)

val variant_name : variant -> string
val all_variants : variant list
val policy_of : variant -> Lang.Interp.policy

val lea_fir_seg : string * Lang.Interp.io_impl
(** [Lea_fir_seg(input, in_off, coeffs, taps, output, out_off, samples)]
    — a windowed FIR block, so the paper's "four LEA calls in a loop"
    can address segments of the staged signal. *)

type interp = Tree_walk | Bytecode

val interp_name : interp -> string

val run_ir :
  src:string ->
  ?setup:(Lang.Interp.t -> unit) ->
  ?check:(Lang.Interp.t -> bool) ->
  ?ablate_regions:bool ->
  ?ablate_semantics:bool ->
  ?interp:interp ->
  ?sink:Trace.Event.sink ->
  ?meter:Obs.Sheet.t ->
  ?probe:(Machine.t -> unit) ->
  variant ->
  failure:Failure.spec ->
  seed:int ->
  Expkit.Run.one
(** Parse, link under the variant's policy, execute on [interp], and
    summarize one run of a task-language application. [setup] (flashing
    input images) and [check] (the end-of-run result check) see the
    linked program ({!Lang.Interp.build}) on either executor. Under
    [Bytecode] (the default) the program is compiled once per (source,
    variant, ablations) per domain and the arena is recycled across
    seeds with {!Vm.reset}; under [Tree_walk] every run links a fresh
    program.
    Results are observationally identical either way. [sink] attaches a
    trace sink to the machine before execution (pure observation: the
    summary is identical with or without one). [probe] runs against the
    machine after the engine returns (uncharged post-run inspection —
    faultkit oracles snapshot final NV state here). [meter] attaches a
    campaign metrics sheet (also pure observation); unlike a sink it
    usually outlives the run — campaigns pass one sheet to every run of
    a shard. *)

val flash : Machine.t -> Loc.t -> int array -> unit
(** Uncharged (link-time) initialization of a memory range. *)

(** {1 Sessions}

    Raw engine inputs for snapshot-based drivers (the prefix-resume
    campaign path, the reboot-space explorer): instead of a one-shot
    [run], a session hands out the app/hooks/machine to push through
    the {!Kernel.Engine} stepper, plus capture/restore of the state
    that lives outside the machine (the radio's receiver log; the VM's
    dispatch counters when metered). The machine starts under
    [No_failures]; drivers steer it with
    {!Platform.Machine.set_failure} after restoring snapshots. *)

type session = {
  ses_machine : Machine.t;
  ses_app : Kernel.Task.app;
  ses_hooks : Kernel.Engine.hooks;
  ses_cur_slot : int option;
      (** pre-allocated task-pointer slot for [Engine.start] (recycled
          arenas); [None] lets the engine allocate one *)
  ses_begin : unit -> unit;
      (** call once per run, after attaching observers and before
          [Engine.start] — latches VM metering *)
  ses_save : unit -> unit -> unit;
      (** capture extra-machine state now; the returned thunk restores
          it (pair with [Engine.restore]) *)
  ses_finish : unit -> unit;
      (** call when a run reaches [Finished] — flushes VM dispatch
          counts to the attached sheet; [ses_finish] then [ses_begin]
          mid-run flushes the counts so far and counts on from zero *)
  ses_radio : Periph.Radio.t;
      (** the radio whose receiver log [ses_save] captures: state a
          continuation depends on besides the machine's *)
}

val session_ir :
  src:string ->
  ?setup:(Lang.Interp.t -> unit) ->
  ?check:(Lang.Interp.t -> bool) ->
  unit ->
  ?ablate_regions:bool ->
  ?ablate_semantics:bool ->
  variant ->
  seed:int ->
  session
(** Session builder for task-language apps, always on the bytecode VM
    (one recycled arena per (program, variant, ablations) per domain;
    hold at most one live session per arena key). The ablation hooks
    come after [()] so an app spec can close over its source and still
    expose them through the [session] field. *)

type spec = {
  app_name : string;
  tasks : int;
  io_functions : int;
  nv_volatile : string list;
      (** FRAM allocation-name prefixes whose final contents {e
          legitimately} differ across failure schedules — everything
          derived from sensor/image samples, whose values are functions
          of the (schedule-shifted) sampling time. The differential
          NV-state oracle ignores these regions; an empty list means
          the whole committed image must match the golden run. *)
  run :
    ?interp:interp ->
    ?sink:Trace.Event.sink ->
    ?meter:Obs.Sheet.t ->
    ?probe:(Machine.t -> unit) ->
    variant ->
    failure:Failure.spec ->
    seed:int ->
    Expkit.Run.one;
      (** one run on [interp] (default [Bytecode]); an app that is not
          a task-language program ignores it *)
  session :
    (?ablate_regions:bool -> ?ablate_semantics:bool -> variant -> seed:int -> session) option;
      (** stepper-compatible access for snapshot-based drivers; [None]
          when the app cannot (yet) expose one. The ablation test hooks
          mirror {!run_ir}'s (apps that cannot ablate raise
          [Invalid_argument] when one is set). *)
}
(** One evaluation application (a Table 3 row + a runner). *)
