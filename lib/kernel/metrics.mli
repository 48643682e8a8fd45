(** Execution metrics.

    Work charged to the machine accumulates in per-attempt buckets; when
    a task commits, its attempt counts as useful (split into application
    work and runtime overhead), and when a power failure interrupts it,
    the whole attempt counts as wasted — the paper's "wasted work" metric
    (computational progress lost to power failures, §5.2). *)

open Platform

type t = {
  mutable useful_app_us : int;
  mutable useful_ovh_us : int;
  mutable wasted_us : int;
  mutable useful_app_nj : float;
  mutable useful_ovh_nj : float;
  mutable wasted_nj : float;
  mutable commits : int;
  mutable attempts : int;
}

val create : unit -> t
val commit : t -> Machine.attempt -> unit
val fail : t -> Machine.attempt -> unit

val copy : t -> t
(** Independent copy; engine checkpoints capture the sheet with it. *)

val assign : src:t -> dst:t -> unit
(** Overwrite [dst]'s fields from [src] in place — restore counterpart
    of {!copy}, preserving the identity of the session's sheet. *)

val total_us : t -> int
(** useful app + overhead + wasted (excludes off-time). *)

val to_json : t -> Trace.Json.t
(** All eight fields as a flat object (the [--json] payload of
    [easeio run] and the reference side of the trace reconciliation). *)
