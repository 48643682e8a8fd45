(* The long-running campaign service.

   Thread/domain layout:
   - one accept thread (select with a short timeout so shutdown is
     observed without signals);
   - one reader thread per connection (parses frames, answers control
     commands inline, spawns an orchestrator thread per job request —
     the reader must keep reading so a [cancel] can arrive mid-job);
   - [jobs] worker *domains* draining the job queue (compute must be
     on domains, not systhreads: the VM arenas are [Domain.DLS]-keyed
     and systhreads within one domain would share them);
   - one ticker thread broadcasting the cache condition periodically
     so waiting orchestrators observe cancellation/shutdown promptly
     (stdlib [Condition] has no timed wait).

   An orchestrator shards its request into cache units (one per
   variant for faults, one for everything else), admits each unit
   through the single-flight cache, enqueues compute jobs for the
   units it admitted first, then waits unit by unit in variant order —
   streaming a cell frame and a progress heartbeat as each resolves —
   and finally ships the assembled one-shot document verbatim. *)

module Json = Trace.Json

type addr = Unix_sock of string | Tcp of int

(* Nagle's algorithm holds back a small segment while an earlier one is
   unacknowledged, and the peer delays that ACK by up to 40 ms, so a
   multi-frame response, or a request sent behind another, would wait
   for it. Both ends of a TCP connection turn it off; it does not apply
   to Unix-domain sockets. *)
let set_nodelay addr fd =
  match addr with
  | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix_sock _ -> ()

type config = {
  addr : addr;
  jobs : int;
  cache_cap : int;
  max_request_bytes : int;
}

let default_config addr =
  {
    addr;
    jobs = Expkit.Pool.default_jobs ();
    cache_cap = 256;
    max_request_bytes = 1024 * 1024;
  }

(* Cached unit values: a faults cell, or a whole finished document. *)
type value = Cell of Faultkit.Campaign.cell | Doc of string

type req_state = { mutable cancelled : bool }

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wm : Mutex.t;
  mutable alive : bool;
  mutable fd_closed : bool;  (* guarded by [wm]; prevents double close / stale-fd shutdown *)
  reqs : (int, req_state) Hashtbl.t;  (* guarded by the server mutex *)
}

type job = { jkey : string; jtoken : int; jcompute : unit -> value }

type t = {
  config : config;
  lsock : Unix.file_descr;
  port : int;  (* resolved port for [Tcp 0] *)
  cache : value Cache.t;
  queue : job Jobq.t;
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  mutable conns : conn list;
  threads : (int, Thread.t) Hashtbl.t;  (* live threads by id; guarded by [m] *)
  mutable stop_requested : bool;
  mutable stopped : bool;
  sheet : Obs.Sheet.t;  (* guarded by [m] *)
  started_at : float;
}

(* {1 Telemetry} *)

let c_requests = Obs.Registry.counter "serve/requests"
let c_hits = Obs.Registry.counter "serve/cache_hits"
let c_misses = Obs.Registry.counter "serve/cache_misses"
let c_computed = Obs.Registry.counter "serve/cells_computed"
let c_cancelled = Obs.Registry.counter "serve/cancelled"
let c_errors = Obs.Registry.counter "serve/errors"
let h_queue_depth = Obs.Registry.hist "serve/queue_depth"

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let bump t c = with_lock t (fun () -> Obs.Sheet.bump t.sheet c)
let observe t h v = with_lock t (fun () -> Obs.Sheet.observe t.sheet h v)

(* {1 Frame output}

   All writes to one connection go through its write mutex: concurrent
   orchestrators interleave whole frames, never bytes. Write failures
   (peer gone) mark the connection dead and are otherwise ignored —
   the reader thread owns teardown. *)

let send_raw conn payload =
  Mutex.lock conn.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wm)
    (fun () ->
      if conn.alive && not conn.fd_closed then
        try Wire.write_frame conn.oc payload with Sys_error _ | Unix.Unix_error _ -> conn.alive <- false)

let send_error conn ~id ~code msg =
  send_raw conn
    (Printf.sprintf "{\"id\":%d,\"frame\":\"error\",\"code\":\"%s\",\"msg\":\"%s\"}" id code
       (String.escaped msg))

let send_simple conn ~id frame = send_raw conn (Printf.sprintf "{\"id\":%d,\"frame\":\"%s\"}" id frame)

(* {1 Unit-of-work decomposition} *)

type unit_of_work = { ukey : string; ulabel : string; ucompute : unit -> value }

let resolve_app name =
  match Apps.Catalog.find name with
  | spec -> Ok spec
  | exception Not_found -> Error (Printf.sprintf "unknown application %S" name)
  | exception Apps.Catalog.Ambiguous names ->
      Error (Printf.sprintf "ambiguous application %S: matches %s" name (String.concat ", " names))

(* Split a request into cache units plus a final assembler from unit
   values (in unit order) to the response document. Validation errors
   come back as protocol errors before anything is admitted. *)
let plan cache (req : Protocol.request) :
    (unit_of_work list * (value list -> string), Protocol.error) result =
  match req with
  | Protocol.Run { src; policy; failure; seed } -> (
      let key = Protocol.run_key ~src ~policy ~failure ~seed in
      (* surface syntax errors as bad-request now, not as a poisoned
         compute later. The key digests the source bytes and only
         sources that parsed are admitted, so a resident key needs no
         second parse; if it is evicted before [acquire], the compute
         re-parses bytes that already parsed once. *)
      let check_syntax () = if not (Cache.mem cache key) then ignore (Lang.Parser.parse src) in
      match check_syntax () with
      | exception Lang.Parser.Error (_, msg) ->
          Error { Protocol.code = "bad-request"; msg = Printf.sprintf "run: parse error: %s" msg }
      | () ->
          let compute () =
            Doc (Json.to_string (Oneshot.run_doc ~policy ~failure ~seed src))
          in
          Ok
            ( [ { ukey = key; ulabel = "run"; ucompute = compute } ],
              function [ Doc d ] -> d | _ -> assert false ))
  | Protocol.Faults { app; runtime; sweep; seed } -> (
      match resolve_app app with
      | Error msg -> Error { Protocol.code = "unknown-app"; msg }
      | Ok spec ->
          let variants =
            match runtime with None -> Apps.Common.all_variants | Some v -> [ v ]
          in
          let units =
            List.map
              (fun variant ->
                {
                  ukey =
                    Protocol.cell_key ~app:spec.Apps.Common.app_name ~variant ~sweep ~seed;
                  ulabel = Apps.Common.variant_name variant;
                  ucompute = (fun () -> Cell (Oneshot.faults_cell ~sweep ~seed spec variant));
                })
              variants
          in
          let assemble values =
            let cells =
              List.map (function Cell c -> c | Doc _ -> assert false) values
            in
            Oneshot.faults_doc ~app:spec.Apps.Common.app_name ~sweep ~seed cells
          in
          Ok (units, assemble))
  | Protocol.Fuzz { options } ->
      let key = Protocol.fuzz_key options in
      Ok
        ( [ { ukey = key; ulabel = "fuzz"; ucompute = (fun () -> Doc (Oneshot.fuzz_doc options)) } ],
          function [ Doc d ] -> d | _ -> assert false )
  | Protocol.Explore { app; runtime; depth; max_states; prune; ablate_regions; ablate_semantics; seed }
    -> (
      match resolve_app app with
      | Error msg -> Error { Protocol.code = "unknown-app"; msg }
      | Ok spec ->
          if spec.Apps.Common.session = None then
            Error
              {
                Protocol.code = "bad-request";
                msg =
                  Printf.sprintf "explore: %S exposes no session runner"
                    spec.Apps.Common.app_name;
              }
          else
            let key =
              Protocol.explore_key ~app:spec.Apps.Common.app_name ~runtime ~depth ~max_states
                ~prune ~ablate_regions ~ablate_semantics ~seed
            in
            let compute () =
              Doc
                (Oneshot.explore_doc ~depth ?max_states ~prune ~ablate_regions ~ablate_semantics
                   ~seed spec runtime)
            in
            Ok ([ { ukey = key; ulabel = "explore"; ucompute = compute } ], function
              | [ Doc d ] -> d
              | _ -> assert false))

(* {1 Orchestration} *)

let enqueue t job =
  observe t h_queue_depth (Jobq.depth t.queue);
  ignore (Jobq.push t.queue job : bool)

(* Summary line for one resolved unit, streamed incrementally. *)
let cell_frame ~id ~index ~label ~cached = function
  | Cell (c : Faultkit.Campaign.cell) ->
      Printf.sprintf
        "{\"id\":%d,\"frame\":\"cell\",\"index\":%d,\"runtime\":\"%s\",\"cached\":%b,\"cases\":%d,\"failed\":%d}"
        id index (String.escaped label) cached c.Faultkit.Campaign.cases
        c.Faultkit.Campaign.failed_count
  | Doc d ->
      Printf.sprintf
        "{\"id\":%d,\"frame\":\"cell\",\"index\":%d,\"runtime\":\"%s\",\"cached\":%b,\"bytes\":%d}"
        id index (String.escaped label) cached (String.length d)

let handle_job t conn id (req_st : req_state) req =
  bump t c_requests;
  match plan t.cache req with
  | Error { Protocol.code; msg } ->
      bump t c_errors;
      send_error conn ~id ~code msg
  | Ok (units, assemble) -> (
      let units = Array.of_list units in
      let n = Array.length units in
      let progress =
        Obs.Progress.create ~interval_s:0. ~total:n
          (Obs.Progress.Sink
             (fun hb -> send_raw conn (Printf.sprintf "{\"id\":%d,\"frame\":\"progress\",\"hb\":%s}" id hb)))
          ~label:(Printf.sprintf "serve#%d" id)
      in
      let cancelled () = req_st.cancelled || t.stop_requested in
      (* admission pass: enqueue every unit we are first to want.
         Claim states per unit: [`Done] resolved, [`Pending] we hold a
         live claim, [`Settled] our claim was consumed by a cancelled
         or failed wait (never release it again). *)
      let claims =
        Array.map
          (fun u ->
            match Cache.acquire t.cache u.ukey with
            | Cache.Hit v ->
                bump t c_hits;
                `Done (v, true)
            | Cache.Compute token ->
                bump t c_misses;
                enqueue t { jkey = u.ukey; jtoken = token; jcompute = u.ucompute };
                `Pending
            | Cache.Wait ->
                bump t c_misses;
                `Pending)
          units
      in
      let release_pending () =
        Array.iteri
          (fun j c -> match c with `Pending -> Cache.release t.cache units.(j).ukey | _ -> ())
          claims
      in
      let runs_of = function Cell c -> c.Faultkit.Campaign.cases | Doc _ -> 1 in
      (* resolution pass, in unit order; each resolved unit streams a
         cell frame and a heartbeat *)
      let results = Array.make n None in
      let failure = ref None in
      (try
         for i = 0 to n - 1 do
           let u = units.(i) in
           let v, cached =
             match claims.(i) with
             | `Done (v, cached) -> (v, cached)
             | `Settled -> assert false
             | `Pending ->
                 let rec await () =
                   match Cache.wait t.cache u.ukey ~cancelled with
                   | Cache.Value v -> (v, false)
                   | Cache.Failed_with msg ->
                       claims.(i) <- `Settled;
                       failure := Some (`Failed msg);
                       raise Exit
                   | Cache.Cancelled ->
                       claims.(i) <- `Settled;
                       failure := Some `Cancelled;
                       raise Exit
                   | Cache.Resubmit token ->
                       enqueue t { jkey = u.ukey; jtoken = token; jcompute = u.ucompute };
                       await ()
                 in
                 await ()
           in
           claims.(i) <- `Done (v, cached);
           results.(i) <- Some (v, cached);
           send_raw conn (cell_frame ~id ~index:i ~label:u.ulabel ~cached v);
           Obs.Progress.tick ~runs:(runs_of v) progress
         done
       with Exit -> ());
      match !failure with
      | None ->
          let resolved = Array.map (function Some r -> r | None -> assert false) results in
          let doc = assemble (Array.to_list (Array.map fst resolved)) in
          let cached = Array.for_all snd resolved in
          Obs.Progress.finish progress;
          (* the result header, then the document bytes verbatim *)
          send_raw conn
            (Printf.sprintf "{\"id\":%d,\"frame\":\"result\",\"cached\":%b,\"bytes\":%d}" id cached
               (String.length doc));
          send_raw conn doc
      | Some `Cancelled ->
          bump t c_cancelled;
          release_pending ();
          send_simple conn ~id "cancelled"
      | Some (`Failed msg) ->
          bump t c_errors;
          release_pending ();
          send_error conn ~id ~code:"internal" msg)

(* {1 Control commands} *)

let stats_payload t =
  let s = Cache.stats t.cache in
  let snap = with_lock t (fun () -> Obs.Snapshot.of_sheet t.sheet) in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int 0);
         ("frame", Json.String "stats");
         ("jobs", Json.Int t.config.jobs);
         ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
         ("queue_depth", Json.Int (Jobq.depth t.queue));
         ("queue_max_depth", Json.Int (Jobq.max_depth t.queue));
         ( "cache",
           Json.Obj
             [
               ("hits", Json.Int s.Cache.hits);
               ("misses", Json.Int s.Cache.misses);
               ("computes", Json.Int s.Cache.computes);
               ("failures", Json.Int s.Cache.failures);
               ("abandoned", Json.Int s.Cache.abandoned);
               ("evictions", Json.Int s.Cache.evictions);
               ("entries", Json.Int s.Cache.entries);
               ("cap", Json.Int t.config.cache_cap);
             ] );
         ("metrics", Obs.Snapshot.to_json snap);
       ])

let request_stop t =
  t.stop_requested <- true;
  Jobq.close t.queue;
  Cache.broadcast t.cache

let handle_control t conn = function
  | Protocol.Ping -> send_simple conn ~id:0 "pong"
  | Protocol.Stats -> send_raw conn (stats_payload t)
  | Protocol.Shutdown ->
      send_simple conn ~id:0 "bye";
      request_stop t
  | Protocol.Cancel target -> (
      match with_lock t (fun () -> Hashtbl.find_opt conn.reqs target) with
      | Some st ->
          st.cancelled <- true;
          Cache.broadcast t.cache
      | None ->
          (* addressed to the *target* id, not 0: a cancel that lost
             the race against its own request's completion must not
             look like a connection-level error to other requests *)
          send_error conn ~id:target ~code:"bad-request"
            (Printf.sprintf "no request #%d" target))

(* {1 Connection lifecycle} *)

(* Start a server thread. [t.threads] holds only the live ones: each
   removes itself on exit under [t.m], and is added under [t.m] before
   it can take that lock, so a fast exit cannot race the add. *)
let spawn t f =
  with_lock t (fun () ->
      let th =
        Thread.create
          (fun () ->
            Fun.protect f ~finally:(fun () ->
                let self = Thread.id (Thread.self ()) in
                with_lock t (fun () -> Hashtbl.remove t.threads self)))
          ()
      in
      Hashtbl.replace t.threads (Thread.id th) th)

let cancel_conn_requests t conn =
  with_lock t (fun () -> Hashtbl.iter (fun _ st -> st.cancelled <- true) conn.reqs);
  Cache.broadcast t.cache

(* Interrupt a blocked reader without closing the fd (close alone does
   not wake a blocked read, and the fd number must stay reserved until
   the final close so it cannot be reused under a stale shutdown). *)
let shutdown_conn conn =
  Mutex.lock conn.wm;
  conn.alive <- false;
  if not conn.fd_closed then
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wm

let close_conn t conn =
  with_lock t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns);
  Mutex.lock conn.wm;
  conn.alive <- false;
  if not conn.fd_closed then begin
    conn.fd_closed <- true;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.wm

(* After the reader stops reading, in-flight orchestrators may still
   be streaming results (half-closed peers read them); close only once
   they drain, so the fd can never be reused under a live writer. *)
let drain_then_close t conn =
  let in_flight () = with_lock t (fun () -> Hashtbl.length conn.reqs > 0) in
  while in_flight () && not t.stop_requested do
    Thread.delay 0.05
  done;
  close_conn t conn

let reader_loop t conn =
  let rec loop () =
    if t.stop_requested then ()
    else
      match Wire.read_frame ~max_bytes:t.config.max_request_bytes conn.ic with
      | Error Wire.Closed ->
          (* EOF: a half-closed peer stops sending but still reads, so
             in-flight requests run to completion and stream their
             results before the connection is torn down. Never fatal
             to the server. *)
          ()
      | Error (Wire.Oversize n) ->
          (* the stream is desynchronized beyond this frame: report,
             cancel what this connection had in flight, hang up *)
          send_error conn ~id:0 ~code:"oversize"
            (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
               t.config.max_request_bytes);
          cancel_conn_requests t conn
      | Ok payload -> (
          match Json.of_string payload with
          | Error msg ->
              send_error conn ~id:0 ~code:"bad-frame" msg;
              loop ()
          | Ok json -> (
              match Protocol.parse json with
              | Error { Protocol.code; msg } ->
                  send_error conn ~id:0 ~code msg;
                  loop ()
              | Ok (Protocol.Control c) ->
                  handle_control t conn c;
                  loop ()
              | Ok (Protocol.Job (id, req)) ->
                  let dup =
                    with_lock t (fun () ->
                        if Hashtbl.mem conn.reqs id then true
                        else begin
                          Hashtbl.replace conn.reqs id { cancelled = false };
                          false
                        end)
                  in
                  if dup then
                    send_error conn ~id ~code:"bad-request"
                      (Printf.sprintf "request #%d already in flight" id)
                  else begin
                    let st = with_lock t (fun () -> Hashtbl.find conn.reqs id) in
                    spawn t (fun () ->
                        (try handle_job t conn id st req
                         with e -> send_error conn ~id ~code:"internal" (Printexc.to_string e));
                        with_lock t (fun () -> Hashtbl.remove conn.reqs id))
                  end;
                  loop ()))
  in
  (try loop () with Sys_error _ | Unix.Unix_error _ -> cancel_conn_requests t conn);
  drain_then_close t conn

let accept_loop t =
  let rec loop () =
    if not t.stop_requested then begin
      (match Unix.select [ t.lsock ] [] [] 0.25 with
      | [ _ ], _, _ when not t.stop_requested -> (
          match Unix.accept t.lsock with
          | fd, _ ->
              set_nodelay t.config.addr fd;
              let conn =
                {
                  fd;
                  ic = Unix.in_channel_of_descr fd;
                  oc = Unix.out_channel_of_descr fd;
                  wm = Mutex.create ();
                  alive = true;
                  fd_closed = false;
                  reqs = Hashtbl.create 4;
                }
              in
              with_lock t (fun () -> t.conns <- conn :: t.conns);
              spawn t (fun () -> reader_loop t conn)
          | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

(* Periodic broadcast so orchestrators blocked in [Cache.wait] poll
   their cancellation flags even when no cache transition happens. *)
let ticker_loop t =
  while not t.stop_requested do
    Thread.delay 0.2;
    Cache.broadcast t.cache
  done;
  Cache.broadcast t.cache

let worker_loop t () =
  let rec loop () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some j ->
        if Cache.start t.cache j.jkey j.jtoken then begin
          match j.jcompute () with
          | v ->
              Cache.fill t.cache j.jkey j.jtoken v;
              bump t c_computed
          | exception e -> Cache.poison t.cache j.jkey j.jtoken (Printexc.to_string e)
        end;
        loop ()
  in
  loop ()

(* {1 Lifecycle} *)

let start config =
  if config.jobs < 1 then invalid_arg "Server.start: jobs must be >= 1";
  (* a peer vanishing mid-write must be an EPIPE error, not a signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain, sockaddr =
    match config.addr with
    | Unix_sock path ->
        if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let lsock = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock sockaddr;
  Unix.listen lsock 64;
  let port =
    match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
  in
  let t =
    {
      config;
      lsock;
      port;
      cache = Cache.create ~cap:config.cache_cap;
      queue = Jobq.create ();
      workers = [||];
      m = Mutex.create ();
      conns = [];
      threads = Hashtbl.create 16;
      stop_requested = false;
      stopped = false;
      sheet = Obs.Sheet.create ();
      started_at = Unix.gettimeofday ();
    }
  in
  t.workers <- Array.init config.jobs (fun _ -> Domain.spawn (worker_loop t));
  spawn t (fun () -> accept_loop t);
  spawn t (fun () -> ticker_loop t);
  t

let port t = t.port
let live_threads t = with_lock t (fun () -> Hashtbl.length t.threads)
let stop_requested t = t.stop_requested
let cache_stats t = Cache.stats t.cache
let queue_max_depth t = Jobq.max_depth t.queue
let snapshot t = with_lock t (fun () -> Obs.Snapshot.of_sheet t.sheet)

(* Graceful stop: new work is refused (queue closed), running jobs
   finish and fill the cache, waiting orchestrators observe the stop
   flag and bail, every thread and domain is joined, sockets closed,
   the unix socket path unlinked. Idempotent. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    request_stop t;
    (* wake blocked reader threads: shutdown is what interrupts a
       blocked read (close alone does not) *)
    let conns = with_lock t (fun () -> t.conns) in
    List.iter shutdown_conn conns;
    Array.iter Domain.join t.workers;
    Cache.broadcast t.cache;
    (* a reader may spawn one last orchestrator while we join *)
    let rec join_live () =
      match with_lock t (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.threads []) with
      | [] -> ()
      | live ->
          List.iter Thread.join live;
          join_live ()
    in
    join_live ();
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    match t.config.addr with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ()
  end

(* Block until a stop is requested (shutdown command or [request_stop]
   from a signal handler), then tear down. *)
let run t =
  while not t.stop_requested do
    Thread.delay 0.2
  done;
  stop t
