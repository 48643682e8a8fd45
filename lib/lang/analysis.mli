(** Compile-time analyses over task-language programs.

    These are the analyses the EaseIO front-end (and the baseline
    runtimes' compilers) perform:

    - {b CPU-visible non-volatile accesses}: which NV globals a piece of
      code reads/writes through the CPU. DMA transfers and peripheral
      array arguments are deliberately excluded — neither Alpaca's nor
      InK's idempotency analysis can see them, which is what makes
      re-executed DMA unsafe (§2.1.2).
    - {b WAR variables}: NV globals both read and written by a task's
      CPU code; these are the variables the baselines privatize.
    - {b Region splitting}: cut a task body at its top-level [_DMA_copy]
      statements into N+1 regions (§4.4).
    - {b Name resolution}: undeclared arrays and built-in I/O arity,
      plus the structural checks of {!Ast.validate_diags} ([E01xx]).
    - {b Support checking}: the front-end's structural restrictions
      (Single/Timely operations inside loops need the loop-indexed
      extension; DMA must be a top-level statement so regions are
      well-defined) — reported as [E02xx] diagnostics, {e all} of them,
      not just the first. *)

module SS : Set.S with type elt = string

val nv_cpu_accesses : Ast.program -> Ast.stmt list -> SS.t * SS.t
(** [(reads, writes)] of non-volatile globals by CPU code. *)

val war_vars : Ast.program -> Ast.task -> string list
(** NV globals with a CPU-visible WAR dependence in the task (read and
    written), in declaration order. *)

val split_regions : Ast.task -> (Ast.stmt list * Ast.dma option) list
(** Top-level region decomposition: each element is a run of statements
    followed by the DMA that terminates it ([None] for the final
    region). A task with N top-level DMA statements yields N+1
    regions. *)

val resolve : Ast.program -> Diagnostics.t list
(** Name-resolution diagnostics ([E0101]–[E0108]): structural
    well-formedness, undeclared arrays, built-in arity. *)

val supported : Ast.program -> Diagnostics.t list
(** Structural-support diagnostics ([E0201]–[E0203]), all violations
    collected in source order. *)

val check_supported : Ast.program -> unit
(** Raises {!Ast.Error} carrying {e every} violation message (one per
    line) when the program uses constructs the front-end cannot
    transform (annotated I/O inside [while]/[for], DMA nested in
    control flow). *)
