(** Source-located diagnostics with stable codes.

    Every front-end pass reports findings as values of {!t}: a stable
    code ([E01xx] resolution, [E02xx] structural support and resource
    limits, [E03xx] namespace safety, [W04xx] lints), a {!Span.t}, a
    message and an optional hint. Renderers produce either compiler-style
    text with a caret/underline source excerpt or JSON (the
    [Trace.Json] value type).

    Diagnostic codes in use:

    - [E0001] lexical or syntax error (from the parser)
    - [E0101] unknown entry task
    - [E0102] [next] to an unknown task
    - [E0103] duplicate global declaration
    - [E0104] non-positive array size
    - [E0105] initializer on a volatile global
    - [E0106] undeclared array (indexing, DMA or peripheral operand)
    - [E0107] wrong argument count for a built-in I/O function
    - [E0108] duplicate task name
    - [E0201] Single/Timely I/O inside a dynamically bounded or nested loop
    - [E0202] [io_block] inside a loop
    - [E0203] [_DMA_copy] not a top-level task statement
    - [E0204] privatization buffer overflow
    - [E0301] user global colliding with the compiler's reserved [__] prefix
    - [W0401] redundant [Always] on an I/O site whose result is never read
    - [W0402] [Timely] deadline below the capacitor's worst-case recharge time
    - [W0403] WAR variable written after a Single DMA but never privatized *)

type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  span : Span.t;
  message : string;
  hint : string option;
}

val error : ?hint:string -> code:string -> span:Span.t -> ('a, unit, string, t) format4 -> 'a
val warning : ?hint:string -> code:string -> span:Span.t -> ('a, unit, string, t) format4 -> 'a
val is_error : t -> bool
val has_errors : t list -> bool

(** An accumulating collection threaded through a pass pipeline;
    {!contents} returns diagnostics in insertion order. *)
type bag

val create_bag : unit -> bag
val add : bag -> t -> unit
val add_all : bag -> t list -> unit
val contents : bag -> t list

val render : ?src:string -> t -> string
(** Compiler-style text: header line, then (when [src] is given and the
    span is not ghost) the source line with a caret/underline excerpt,
    then the hint. *)

val render_all : ?src:string -> t list -> string

val to_json : t -> Trace.Json.t
val report_to_json : file:string -> t list -> Trace.Json.t
(** [{file; diagnostics; errors; warnings}] — the [easeio check --json]
    document. *)
