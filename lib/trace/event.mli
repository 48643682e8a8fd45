(** Structured execution-trace events.

    Everything the simulator can narrate about one run: power cycles,
    task attempts, I/O re-execution decisions, runtime privatization
    work and peripheral activity. The schema is deliberately built from
    primitives only (strings, ints, floats) so this library sits below
    [Platform] — the machine carries an optional {!sink} and every layer
    above it emits through [Platform.Machine.emit].

    Emission is pure observation: producing an event never charges
    simulated time or energy, so a run with a sink attached is
    numerically identical to the same run without one. *)

type sem = Single | Timely of int | Always
(** Mirror of [Easeio.Semantics.t] (which lives above this library);
    [Timely] carries the freshness window in µs. *)

val sem_name : sem -> string

(** What the runtime decided at a guarded I/O site:
    - [Exec] — first execution of the site in this task instance;
    - [Replay] — the site had already completed but is re-executed
      (dependence fired, enclosing block violated, freshness expired,
      or [Always] semantics);
    - [Skip] — the completed result is restored instead of re-running
      the operation. Only [Single]/[Timely] sites can skip. *)
type decision = Exec | Replay | Skip

val decision_name : decision -> string

type mem = Fram | Sram

val mem_name : mem -> string

type payload =
  | Boot of { index : int }  (** power-on number [index] (1 = first) *)
  | Power_failure of { index : int; cap_nj : float }
      (** the instant power is lost; [cap_nj] is the capacitor level *)
  | Cap_level of { nj : float }
      (** periodic capacitor sample (about one per simulated ms) *)
  | Task_start of { task : string; attempt : int }
      (** attempt [attempt] (1-based, per task) begins *)
  | Task_commit of {
      task : string;
      attempt : int;
      app_us : int;
      ovh_us : int;
      app_nj : float;
      ovh_nj : float;
    }  (** the attempt committed; fields are its work buckets *)
  | Task_abort of {
      task : string;
      attempt : int;
      app_us : int;
      ovh_us : int;
      app_nj : float;
      ovh_nj : float;
    }
      (** a power failure killed the attempt; its buckets are the
          wasted work. [task] is ["(dispatch)"] for the rare death
          inside the engine's task-pointer read, before a task was
          identified. *)
  | Io of { site : string; kind : string; sem : sem; decision : decision; reason : string }
      (** a guarded I/O site was evaluated. [kind] is ["call"],
          ["block"], ["dma"] or ["dma-priv"]; [reason] explains the
          decision (e.g. ["first"], ["done"], ["fresh"], ["expired"],
          ["dep"], ["block-skip"], ["block-force"], ["always"]). *)
  | Privatize of { runtime : string; task : string; words : int }
      (** a baseline runtime copied [words] words into private buffers
          at task start *)
  | Commit of { runtime : string; task : string; words : int }
      (** a baseline runtime made [words] words visible at task end *)
  | Region_priv of { region : string; words : int; restored : bool }
      (** EaseIO regional privatization: snapshot on first entry
          ([restored = false]) or recovery after a failure *)
  | Dma of { src : mem; dst : mem; words : int }  (** transfer programmed *)
  | Lea of { op : string; elements : int }  (** accelerator command issued *)
  | Radio_send of { words : int }  (** packet transmission started *)
  | Count of { name : string; count : int }
      (** a machine event counter ticked to [count]; names starting
          with ["io:"] are peripheral executions, and the final count
          per name equals [Platform.Machine.event] — the basis of the
          redundant-I/O reconciliation *)

type t = { ts_us : int; payload : payload }
(** An event stamped with the simulated time it occurred at. *)

type sink = t -> unit
(** Event consumer. The machine invokes it synchronously at emission;
    it must not touch the machine (the in-memory {!Recorder} is the
    standard sink). *)
