(** Bytecode VM: the simulator's hot-path executor.

    The tree-walking interpreter ({!Lang.Interp}) resolves every
    variable name through hashtables and dispatches on runtime policy at
    each access — fine for an oracle, wasteful for million-run sweeps.
    This module takes the program {!Lang.Interp.build} linked and
    lowers it once into a flat [int array] instruction stream whose
    operands are preresolved: raw globals carry their absolute
    FRAM/SRAM addresses, managed globals carry their
    {!Runtimes.Manager} handles, locals are dense array slots, and the
    runtime policy's charging behavior is baked into the opcode choice
    at compile time.

    The contract is {e exact observational equivalence} with the tree
    walker, which charges one op at a time: the same charge count,
    clock, App/Overhead time and energy, memory, step-limit error, event
    bumps, error messages and dispatch counters at every point a power
    failure, an error, a trace sink or a metrics sheet can observe, and
    the same final non-volatile state. Between such points a
    straight-line block of statically charged ops (CPU ops, raw global
    and element accesses) has its charges applied in one
    {!Platform.Machine.charge_block} and runs uncharged — only when the
    failure model cannot fire inside it, the machine is in a timer mode,
    no capacitor sample falls due inside it when a sink is attached, and
    the step budget covers it; otherwise it runs op by op. A metered
    run adds such a block's per-op dispatch counts in one step. The
    conformance judge cross-checks this on every fuzzing run.

    A compiled program owns a reusable arena (machine, stack, locals,
    loop registers, scratch): [compile] once per (program, policy), then
    [reset]+[run] per seed, with no per-run allocation beyond what the
    kernel engine itself does. *)

open Platform

type t
(** A compiled program plus its reusable execution arena. *)

val compile :
  ?policy:Lang.Interp.policy ->
  ?extra_io:(string * Lang.Interp.io_impl) list ->
  ?ablate_regions:bool ->
  ?ablate_semantics:bool ->
  Machine.t ->
  Lang.Ast.program ->
  t
(** Link the program with {!Lang.Interp.build} (same arguments), lower
    every task of the linked program to bytecode, then allocate the
    engine's task pointer. Layout, runtime state, hooks and flash-time
    initialization are the linker's, so the tree walker and the VM run
    on identical memory. The machine is captured as the arena; use
    [reset] to recycle it between runs. *)

val reset : ?seed:int -> ?failure:Failure.spec -> t -> unit
(** Reinitialize the arena for a fresh run: clear both memories, reset
    counters/clock/energy/events, reseed the RNG, install the given
    failure schedule, and replay the program's flash-time global
    initialization ({!Lang.Interp.reflash}). Compile-time memory layouts
    are kept, so a [reset] arena is observationally identical to a
    freshly [compile]d one. *)

val run : ?check:(Lang.Interp.t -> bool) -> t -> Kernel.Engine.outcome
(** Execute to completion through the kernel engine. [check] is the
    end-of-run application check (same role as [Interp.build]'s
    [?check]) on the {!linked} program, supplied per run so one compiled
    arena serves many seeds. *)

(** {2 Session access}

    [run] decomposed, for drivers that push the arena through the
    {!Kernel.Engine} stepper (prefix-resume campaigns, the explorer)
    instead of [Engine.run]: [prepare] + [begin_metered], then
    [Engine.start ~hooks ~cur_slot] and step; [flush_counts] when the
    run finishes. The VM's volatile execution state is dead at attempt
    boundaries (the per-attempt prologue re-zeroes it), so a
    checkpoint needs only {!save_counts} (when metered) and the
    radio's snapshot beyond the machine's own. *)

val prepare : ?check:(Lang.Interp.t -> bool) -> t -> Kernel.Task.app * Kernel.Engine.hooks * int
(** The engine inputs for this arena: the compiled app (with [check]
    wired in, same role as {!run}'s), the linker's runtime hooks, and
    the pre-allocated task-pointer slot. *)

val begin_metered : t -> unit
(** Latch whether the machine carries a metrics sheet and zero the
    per-run dispatch counters; call once per run before the engine. *)

val flush_counts : t -> unit
(** Push the run's opcode/callsite dispatch counts to the attached
    sheet (no-op unmetered); call once when the run finishes. *)

val save_counts : t -> int array * int array
(** Copy the dispatch counters (checkpoint side-state when metered). *)

val restore_counts : t -> int array * int array -> unit

val machine : t -> Machine.t
val radio : t -> Periph.Radio.t

val linked : t -> Lang.Interp.t
(** The linked program this arena runs: the executed program, its
    globals ({!Lang.Interp.read_global}, {!Lang.Interp.global_loc}) and
    its runtime, on this arena's machine. *)
