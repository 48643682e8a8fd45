(** Task-based application model.

    An application is a set of atomic tasks. A task body runs to
    completion and names its successor; a power failure anywhere inside
    the body causes the whole body to re-execute on the next boot
    (all-or-nothing semantics). Task-local OCaml bindings model volatile
    registers/stack: they vanish naturally when the body re-runs.
    Persistent state must live in the machine's FRAM. *)

open Platform

type transition =
  | Next of string  (** continue with the named task *)
  | Stop  (** application complete *)

type t = {
  name : string;
  body : Machine.t -> transition;
}

type app = {
  app_name : string;
  tasks : t list;
  entry : string;  (** name of the first task *)
  check : (Machine.t -> bool) option;
      (** post-run correctness predicate (compares outputs against an
          independently computed reference); [None] = not checkable *)
}

val make_app : ?check:(Machine.t -> bool) -> name:string -> entry:string -> t list -> app
(** Validates that [entry] and every [Next] target can resolve. *)

val find : app -> string -> t
(** Raises [Not_found] on unknown task names. *)

val index_of : app -> string -> int
val task_of_index : app -> int -> t
