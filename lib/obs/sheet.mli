(** Per-run mutable metric scratchpad.

    A sheet is owned by a single run: updates are unsynchronized array
    stores indexed by {!Registry} id, costing an array write on the
    hot path (plus a rare grow when the registry gained names since
    the sheet was created). Snapshotting and merging live in
    {!Snapshot}; a sheet itself never crosses domains. *)

type t

val create : unit -> t

val bump : t -> int -> unit
(** [bump t id] increments counter [id] by one. *)

val add : t -> int -> int -> unit
(** [add t id n] increments counter [id] by [n]. *)

val observe : t -> int -> int -> unit
(** [observe t id v] adds one sample of value [v] to histogram [id]
    (bucketed by {!Registry.bucket}). *)

val copy : t -> t
(** Deep copy. Prefix-resume drivers copy the pacer run's sheet at
    each checkpoint so every resumed case starts from the prefix's
    exact totals. *)

val diff : t -> t -> t
(** [diff a b] is [a] minus [b], row by row: what a run added to a
    sheet between a {!copy} [b] and now. *)

val add_sheet : t -> t -> unit
(** [add_sheet t d] adds every row of [d] to [t]. *)

val sub_sheet : t -> t -> unit
(** [sub_sheet t d] takes every row of [d] from [t]. *)

val reset : t -> unit
(** Zero every row, keeping the allocations. *)

val counter : t -> int -> int
(** Current value of a counter (0 if never touched). *)

val fold_counters : t -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** Fold over non-zero counters in id order, resolving names. *)

val fold_hists : t -> ('a -> string -> int array -> 'a) -> 'a -> 'a
(** Fold over non-empty histograms in id order; rows are copies. *)
