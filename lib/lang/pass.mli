(** The staged compiler pipeline.

    The front-end is organized as named passes threading one shared
    diagnostics bag: analyses ([resolve], [supported], [lint], [war],
    [taint], [regions]) report but never rewrite; the two transform
    stages ([guards], [privatize]) rewrite and are skipped as soon as
    the bag holds an error — so a broken program still yields {e every}
    diagnostic, not just the first, and never a half-compiled output.

    Drivers observe the program after each pass ([?observe]) to
    implement [--dump-after PASS]; every intermediate program is
    concrete syntax the parser accepts back. *)

type options = {
  recharge_us : int option;  (** W0402 threshold; [None] = platform default *)
  priv_buffer_words : int;  (** E0204 threshold (default 2048 — the paper's 4 KB) *)
  ablate_regions : bool;
  ablate_semantics : bool;
}

val default_options : options

type artifacts = {
  mutable war : (string * string list) list;  (** per task: WAR variables *)
  mutable regions : (string * int) list;  (** per task: region count *)
  mutable dma_deps : (string * string list list) list;
      (** per task: dependence markers of each top-level DMA in order *)
  mutable locks : (string * string list) list;  (** per task: guard lock flags *)
  mutable clear_flags : (string * string list) list;
      (** per task: commit-clear schedule (after [privatize]) *)
  mutable demand_words : int;  (** privatization-buffer demand *)
}

type ctx = {
  bag : Diagnostics.bag;
  opts : options;
  art : artifacts;
  mutable orig : Ast.program option;
}

type t = {
  name : string;
  doc : string;
  transform : bool;
  run : ctx -> Ast.program -> Ast.program;
}

val resolve : t
val supported : t
val lint : t
val war : t
val taint : t
val regions : t
val guards : t
val privatize : t

val analysis_passes : t list
(** What [easeio check] runs: all analyses and lints, no rewriting. *)

val compile_passes : t list
(** What [easeio compile] runs: analyses, then [guards] and
    [privatize]. *)

val find : t list -> string -> t option
val names : t list -> string list

val run_pipeline :
  ?observe:(string -> Ast.program -> unit) ->
  ?opts:options ->
  t list ->
  Ast.program ->
  Ast.program * ctx
(** Fold the passes over a program. [observe name prog] fires after
    every pass with the current program. The returned context carries
    the diagnostics bag and analysis artifacts; when the bag has
    errors the returned program is the last analysis input, never a
    partial compile. *)
