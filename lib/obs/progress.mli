(** Campaign progress reporter and serialized stderr logging.

    One mutex guards all stderr output from this module: the heartbeat
    rewrites a single line in place, and {!log} terminates any active
    heartbeat line before printing, so messages never interleave
    mid-line under [--jobs > 1]. Ticks are thread-safe and touch no
    run state — attaching progress cannot perturb results. *)

type mode =
  | Off
  | Stderr  (** single rewritten heartbeat line *)
  | Jsonl  (** one compact JSON object per heartbeat line *)
  | Sink of (string -> unit)
      (** each heartbeat is formatted as the [Jsonl] object (without
          the trailing newline) and handed to the callback instead of
          stderr — used by the campaign server to forward heartbeats
          as socket frames. The callback runs on the ticking thread
          after the module mutex is released, so a sink that blocks
          stalls only its own reporter. Calls for one reporter are
          serialized; exceptions it raises are dropped. *)

val mode_of_string : string -> (mode, string) result
(** Accepts ["off"], ["stderr"] and ["json"] (plus aliases ["none"],
    ["bar"], ["jsonl"]). *)

val log : ('a, unit, string, unit) format4 -> 'a
(** Serialized, flushed stderr line (a newline is appended). Use this
    instead of [Printf.eprintf] anywhere that can run concurrently
    with a heartbeat. *)

type t

val create : ?interval_s:float -> ?total:int -> mode -> label:string -> t
(** [interval_s] rate-limits heartbeats (default 0.5 s). [total] is
    the expected cell count (grown later via {!add_total}). *)

val add_total : t -> int -> unit
(** Grow the expected total as work is discovered (a campaign learns
    each cell's sweep size only after its golden run). *)

val tick : ?runs:int -> t -> unit
(** One cell finished; [runs] is how many simulator runs it contained
    (feeds the runs/s rate, default 1). *)

val finish : t -> unit
(** Emit a final heartbeat ([Stderr]: terminated with a newline;
    [Jsonl]: with a ["done": true] field). *)
