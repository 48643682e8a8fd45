(** Pretty-printer for task-language programs.

    Prints transformed programs in a C-like concrete syntax mirroring
    the paper's Fig. 5/Fig. 6 listings, so the effect of the compiler
    front-end can be inspected (and round-tripped through the parser for
    untransformed programs). *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
