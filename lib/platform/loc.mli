(** A location: an address within one of the two memory spaces.

    EaseIO's [_DMA_copy] resolves re-execution semantics from the memory
    *kinds* of its source and destination, so locations carry their space
    explicitly. *)

type t = { space : Memory.space; addr : int }

val fram : int -> t
val sram : int -> t
val is_nv : t -> bool
val offset : t -> int -> t
