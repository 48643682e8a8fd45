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

val default_io : Periph.Radio.t -> (string * io_impl) list
(** The standard peripheral set (Temp, Humd, Pres, Light, Send, Capture,
    Delay, Lea_mac, Lea_fir) closed over the given radio. Exposed so the
    bytecode VM ({!Vm}) registers the exact same implementations. *)

type t
(** A prepared execution: machine + program + runtime plumbing. *)

val build :
  ?policy:policy ->
  ?extra_io:(string * io_impl) list ->
  ?check:(t -> bool) ->
  ?priv_buffer_words:int ->
  ?ablate_regions:bool ->
  ?ablate_semantics:bool ->
  Machine.t ->
  Ast.program ->
  t
(** Allocate globals, set up the runtime for [policy] (default
    [Easeio]), register default peripherals (Temp, Humd, Pres, Light,
    Send, Capture, Delay, Lea_mac, Lea_fir) plus [extra_io]. The ablate
    flags are forwarded to {!Transform.apply} (Easeio policy only). *)

val run : ?max_failures:int -> t -> Kernel.Engine.outcome
(** Execute to completion through the kernel engine. *)

val machine : t -> Machine.t
val radio : t -> Periph.Radio.t
val program : t -> Ast.program
(** The program actually executed (transformed under [Easeio]). *)

val transformed : t -> Transform.result option

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
