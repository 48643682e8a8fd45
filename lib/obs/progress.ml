(* Campaign progress reporting. Two channels share stderr: the
   heartbeat (a single rewritten line, rate-limited) and ordinary log
   messages. Both go through one mutex and a "heartbeat line active"
   flag, so a log message first terminates the in-place line instead
   of interleaving with it — the raw [Printf.eprintf] scattering this
   replaces garbled output under [--jobs > 1].

   Progress is pure observation: ticks never touch run results, and
   nothing here is part of any deterministic output (heartbeats carry
   wall-clock rates by design). *)

type mode = Off | Stderr | Jsonl | Sink of (string -> unit)

let mode_of_string = function
  | "off" | "none" -> Ok Off
  | "stderr" | "bar" -> Ok Stderr
  | "json" | "jsonl" -> Ok Jsonl
  | s -> Error (Printf.sprintf "unknown progress mode %S (expected off, stderr or json)" s)

let lock = Mutex.create ()

(* true while the last thing written to stderr is an unterminated
   heartbeat line *)
let line_active = ref false

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let end_line () =
  if !line_active then begin
    output_char stderr '\n';
    line_active := false
  end

let log fmt =
  Printf.ksprintf
    (fun s ->
      locked (fun () ->
          end_line ();
          output_string stderr s;
          output_char stderr '\n';
          flush stderr))
    fmt

type t = {
  mode : mode;
  sink_lock : Mutex.t;  (* serializes this reporter's [Sink] calls *)
  label : string;
  interval : float;
  start : float;
  mutable total : int;
  mutable cells : int;
  mutable runs : int;
  mutable last : float;
}

let create ?(interval_s = 0.5) ?(total = 0) mode ~label =
  { mode; sink_lock = Mutex.create (); label; interval = interval_s; start = Unix.gettimeofday ();
    total; cells = 0; runs = 0; last = 0. }

let add_total t n = locked (fun () -> t.total <- t.total + n)

let rates t now =
  let elapsed = max 1e-9 (now -. t.start) in
  let rps = float_of_int t.runs /. elapsed in
  let eta =
    if t.cells = 0 || t.total <= t.cells then 0.
    else elapsed /. float_of_int t.cells *. float_of_int (t.total - t.cells)
  in
  (rps, eta)

let json_line t ~final now =
  let rps, eta = rates t now in
  Printf.sprintf
    "{\"progress\":\"%s\",\"cells\":%d,\"total\":%d,\"runs\":%d,\"runs_per_s\":%.1f,\"eta_s\":%.1f%s}"
    (String.escaped t.label) t.cells t.total t.runs rps eta
    (if final then ",\"done\":true" else "")

(* Runs under [lock]. Stderr output is written here; a [Sink] heartbeat
   is only formatted, and returned for {!deliver} to hand over after the
   lock is released: a sink may block (serve's is a socket write to a
   peer that may have stopped reading), and under [lock] it would stall
   every other reporter in the process. *)
let emit t ~final now =
  match t.mode with
  | Off -> None
  | Stderr ->
      let rps, eta = rates t now in
      end_line ();
      Printf.fprintf stderr "\r[%s] %d/%d cells | %d runs | %.1f runs/s | ETA %.0fs" t.label
        t.cells t.total t.runs rps eta;
      if final then output_char stderr '\n' else line_active := true;
      flush stderr;
      None
  | Jsonl ->
      (* one compact machine-readable object per line, hand-formatted:
         the pretty printer in Trace.Json is multi-line by design *)
      output_string stderr (json_line t ~final now);
      output_char stderr '\n';
      flush stderr;
      None
  | Sink _ -> Some (json_line t ~final now)

let deliver t line =
  match (t.mode, line) with
  | Sink f, Some line -> Mutex.protect t.sink_lock (fun () -> try f line with _ -> ())
  | _ -> ()

let tick ?(runs = 1) t =
  if t.mode <> Off then
    deliver t
      (locked (fun () ->
           t.cells <- t.cells + 1;
           t.runs <- t.runs + runs;
           let now = Unix.gettimeofday () in
           if now -. t.last >= t.interval then begin
             t.last <- now;
             emit t ~final:false now
           end
           else None))

let finish t =
  if t.mode <> Off then deliver t (locked (fun () -> emit t ~final:true (Unix.gettimeofday ())))
