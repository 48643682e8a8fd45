(** Global interning of event-counter names.

    Peripheral modules intern their event names once ("io:Temp",
    "io:DMA", ...) and bump per-machine int-array counters by id — the
    hot-loop replacement for the old per-machine string-keyed Hashtbl.
    The registry is global and append-only; ids are small and dense,
    so a machine's counter array is indexed directly.

    Hot paths must carry a pre-interned id (see {!Machine.bump_id}).
    {!id}, {!find} and {!registered} take the registry lock; {!name}
    reads the append-only name table without it, so a traced run can
    name every counter it bumps. *)

val id : string -> int
(** Intern a name, returning its dense id (stable for the process
    lifetime). *)

val find : string -> int option
(** Lookup without interning — for read-side queries of names that may
    never have been bumped. *)

val name : int -> string
(** The name behind an id (ids come only from {!id}). *)

val registered : unit -> int
(** Number of names interned so far. *)
