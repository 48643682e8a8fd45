(** Task-shared non-volatile variable managers for the baseline
    runtimes (Alpaca, InK).

    Task-based systems keep task-shared state consistent across power
    failures by mediating the CPU's accesses to non-volatile variables:

    - {b Alpaca} (Maeng et al., OOPSLA '17): compile-time idempotency
      analysis finds variables with write-after-read dependences inside a
      task and privatizes exactly those — copy-in at task start, two-phase
      commit (copy-out + commit record) at task end.
    - {b InK} (Yildirim et al., SenSys '18): task-shared values are
      double-buffered; the task works on the inactive buffer and an index
      flip at commit publishes it. A small reactive-kernel scheduler adds
      a fixed per-boundary cost.
    - {b Direct}: no mediation (broken under power failures; used to
      demonstrate bugs).

    The defining limitation reproduced here: the analysis only sees {e
    CPU} accesses. Variables that are read or written by DMA are declared
    with [`war:false`] (the analysis cannot know), and {!raw_loc} hands
    DMA the unmediated backing address — so re-executed DMA corrupts
    memory behind the manager's back, exactly as in §2.1.2 of the
    paper. *)

open Platform

type strategy = Direct | Alpaca | Ink

val strategy_name : strategy -> string

type t
type var

val create : Machine.t -> strategy -> t
val machine : t -> Machine.t
val strategy : t -> strategy

val declare : ?war:bool -> t -> name:string -> words:int -> var
(** Declare a task-shared non-volatile variable. [war] marks a
    CPU-visible write-after-read dependence (what Alpaca's/InK's
    compile-time analysis would find); only such variables are
    privatized. Allocation is link-time (uncharged). *)

val raw_loc : t -> var -> Loc.t
(** Address DMA should use — always the unmediated backing store. *)

val flash_loc : t -> var -> Loc.t
(** Same resolution as {!raw_loc} but uncharged: for flash-time
    initialization, which happens before the device has ever been
    powered and must not advance the failure model. *)

val read : t -> var -> int -> int
(** [read t v i] — charged, mediated word read of element [i]. *)

val write : t -> var -> int -> int -> unit
(** [write t v i x] — charged, mediated word write. *)

val committed : t -> var -> int -> int
(** Uncharged read of the last *committed* value (for InK this is the
    active buffer, not the working copy). Use for post-run inspection
    and golden-state comparison, not from task bodies. *)

val hooks : t -> Kernel.Engine.hooks
(** Engine hooks performing privatization at task start and commit at
    task end (charged to the overhead bucket by the engine). *)
