(** Plain-text table formatting for the benchmark harness. *)

val rule : int list -> string
(** Horizontal rule matching column widths. *)

val row : int list -> string list -> string
(** [row widths cells] — left-aligned padded cells separated by two
    spaces. *)

val heading : string -> string
(** Banner for a table/figure section. *)

val ms : float -> string
val uj : float -> string
val f1 : float -> string
(** One-decimal float. *)
