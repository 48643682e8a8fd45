(** Interpreter: executes task-language programs on the simulated
    machine under a chosen runtime policy.

    - [Plain] — no protection at all: NV accesses go straight to FRAM
      (demonstrates the bugs).
    - [Alpaca] / [Ink] — the baseline task runtimes: every I/O operation
      re-executes with the task, CPU-visible WAR variables are
      privatized by the {!Runtimes.Manager}, DMA bypasses it.
    - [Easeio] — the program is first rewritten by the compiler
      front-end ({!Transform}); the interpreter then executes the
      explicit guard code, uses the {!Easeio.Runtime} for
      runtime-resolved [_DMA_copy] and pending-flag sealing, and clears
      the task's lock flags at commit.

    Accounting follows the paper's methodology: work performed by
    transform-inserted code (accesses to ["__"]-prefixed variables,
    privatization [memcpy]s, persistent-clock reads) and by manager
    privatization/commit is charged to the overhead bucket; everything
    else is application work. *)

open Platform

type policy = Plain | Alpaca | Ink | Easeio

val policy_name : policy -> string

type io_arg_v =
  | Val of int
  | Arr of Loc.t * int  (** location and declared size *)

type io_impl = Machine.t -> io_arg_v list -> int
(** Peripheral implementations receive evaluated arguments and return a
    result (0 for void operations). They charge their own costs and
    bump their ["io:…"] event counters. *)

val lea_fir :
  string ->
  Machine.t ->
  input:io_arg_v ->
  in_off:int ->
  coeffs:io_arg_v ->
  taps:int ->
  output:io_arg_v ->
  out_off:int ->
  samples:int ->
  unit
(** {!Periph.Lea.fir} from word [in_off] of [input] into word [out_off]
    of [output], the body of the [Lea_fir] peripheral and its variants.
    Raises {!Ast.Error} naming the peripheral when an operand is not an
    SRAM array, [taps] or [samples] is negative, or an operand range
    starts before or runs past its array. *)

type t
(** A linked program: machine + program + runtime plumbing. *)

val build :
  ?policy:policy ->
  ?extra_io:(string * io_impl) list ->
  ?check:(t -> bool) ->
  ?ablate_regions:bool ->
  ?ablate_semantics:bool ->
  Machine.t ->
  Ast.program ->
  t
(** Link [prog] onto [m] under [policy] (default [Easeio]): validate it,
    transform it ({!Transform.apply}, Easeio only; the ablate flags are
    forwarded) and size the privatization buffer to the transform's
    demand, create the runtime (the baseline manager, or the EaseIO
    runtime) and the radio, register the default peripherals (Temp,
    Humd, Pres, Light, Send, Capture, Delay, Lea_mac, Lea_fir) plus
    [extra_io], place every global (WAR variables declared to the
    manager under Alpaca/InK) and write its initializer at flash time,
    and resolve each task's commit-cleared lock flags into the engine
    hooks. This is the only linker: the bytecode VM ([Vm.compile])
    lowers the [t] it returns, so both executors run on the same
    layout. *)

val run : t -> Kernel.Engine.outcome
(** Execute to completion through the kernel engine (the tree walker). *)

val machine : t -> Machine.t
val radio : t -> Periph.Radio.t
val program : t -> Ast.program
(** The program actually executed (transformed under [Easeio]). *)

val transformed : t -> Transform.result option

(** {2 Lowering access}

    What a lowering of the linked program needs, resolved once. *)

type global =
  | Managed of Runtimes.Manager.var * int
      (** a baseline-runtime variable and its declared words *)
  | Raw of Loc.t * int  (** a raw FRAM/SRAM location and its declared words *)

val global : t -> string -> global option
(** Where a declared global lives; [None] for task locals. *)

val io : t -> string -> io_impl option
(** A registered peripheral by I/O function name. *)

val manager : t -> Runtimes.Manager.t option
(** The baseline variable manager (Alpaca/InK). *)

val runtime : t -> Easeio.Runtime.t option
(** The EaseIO runtime (Easeio). *)

val hooks : t -> Kernel.Engine.hooks
(** The runtime's engine hooks composed with commit-time lock-flag
    clearing. *)

val reflash : t -> unit
(** Rewrite every flash-time initializer (uncharged), as [build] did,
    from the words it recorded: no name is resolved. For arenas
    recycled with {!Platform.Machine.reset}. *)

val is_runtime_name : string -> bool
(** Whether a global is transform-inserted state (a ["__"] prefix),
    whose raw accesses are charged to the overhead bucket. *)

(** {2 Post-run reads} *)

val read_global : t -> string -> int -> int
(** Uncharged post-run read of a global (committed view under
    Alpaca/InK). Raises [Not_found] for unknown names. *)

val global_equals : t -> string -> int array -> bool
(** [global_equals t name expected] compares the first
    [Array.length expected] elements of a global (committed view) with
    [expected] in place: no copy, one name resolution, and every word
    read, as that many {!read_global} calls would. Raises [Not_found]
    for unknown names. *)

val global_loc : t -> string -> Loc.t
(** Raw backing location of a global (for golden-state comparison). *)
