(** Minimal JSON emitter for machine-readable output.

    The container has no JSON dependency, and the harness only needs
    serialization, so this is a small value type plus a printer
    (RFC 8259-compliant escaping; non-finite floats become [null]). It
    lives at the bottom of the library stack so the trace exporters and
    every layer above them (bench, CLI, campaign reports) share it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed with two-space indentation and a trailing newline,
    so the output file diffs cleanly between runs. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] atomically: the document goes
    to [path ^ ".tmp"] first and is renamed over [path] only once fully
    written, so an interrupted run never leaves a truncated file. *)

val of_string : string -> (t, string) result
(** Parse an RFC 8259 document. Numeric tokens without a fractional or
    exponent part become [Int], the rest [Float] — the inverse of
    [float_repr], which always marks floats, so emit/parse round-trips
    preserve the constructor. Errors carry a byte offset. *)

val of_file : string -> (t, string) result
(** [of_string] over a whole file; I/O failures are reported as
    [Error] rather than raised. *)
