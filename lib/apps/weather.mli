(** The DNN weather-classification application (§5.4.1, Fig. 9).

    Eleven tasks over five I/O functions: sense temperature (Timely,
    10 ms) and humidity (Always) inside a Single I/O block, capture an
    image (Single), infer the weather with the 4-stage DNN (DMA + LEA
    per layer), and send temperature, humidity and the inferred class
    over the radio (Single, data-dependent on the sensor reads).

    Built directly against the library APIs (the shallow embedding):
    baselines use raw peripherals plus the {!Runtimes.Manager};
    EaseIO uses {!Easeio.Runtime}. [buffering] selects the activation
    discipline of Table 5: [`Double] is the defensive two-buffer idiom,
    [`Single] reuses one buffer in place (safe only under EaseIO). *)

open Platform

val tasks : int
(** 11. *)

val io_functions : int
(** 5. *)

val run_once :
  ?buffering:[ `Single | `Double ] ->
  ?sink:Trace.Event.sink ->
  ?meter:Obs.Sheet.t ->
  ?probe:(Machine.t -> unit) ->
  Common.variant ->
  failure:Failure.spec ->
  seed:int ->
  Expkit.Run.one
(** One execution; default buffering [`Double]. The run is judged
    correct when the stored class equals the bit-exact reference
    inference on the stored image and the transmitted packet matches
    the stored sensor values and class. Runs recycle one built machine
    per (variant, buffering) per domain ({!Platform.Machine.reset}), as
    the VM apps' arenas do; the machine [probe] sees is that one. *)

val build :
  ?buffering:[ `Single | `Double ] ->
  Common.variant ->
  Machine.t ->
  Kernel.Task.app * Kernel.Engine.hooks * Periph.Radio.t
(** Construct the application on an existing machine (used by the
    footprint accounting and the examples). *)

val spec : Common.spec
