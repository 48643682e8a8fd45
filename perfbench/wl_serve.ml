(* serve: the campaign service under a closed loop of clients, each
   waiting for its reply as campaign submitters do, over loopback TCP.
   An op is one request. The mix (see Perfbench.Mix) is 75% hits on a
   hot set warmed during set-up, 20% cold [run] requests (shipped .eio
   programs and catalog sources, fresh seeds, paper failures) and 5%
   cold single-runtime [faults] cells of Weather App. on a strided
   sweep, about 100 ms each. Longer cells made the two clients' cells
   overlap often enough that the p99 depended on the seed's order.

   TCP on purpose: every multi-frame response currently waits for a
   delayed ACK, which a Unix socket would hide. Response bytes are
   checked against the in-process [Serve.Oneshot] documents after the
   timed phase, outside every timing. *)

open Env
module S = Perfbench.Spans
module St = Perfbench.Stats
module Mix = Perfbench.Mix
module C = Apps.Common
module Json = Trace.Json

let paper = Expkit.Experiments.paper_failures
let clients_wanted = 2
let server_jobs = 2
let min_requests = 2000
let hot_stride = 64
let cold_stride = 32

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Shipped programs first, then the catalog's task-language sources. *)
let sources () =
  List.map
    (fun f -> (f, read_file (Filename.concat "examples/programs" f)))
    [ "greenhouse.eio"; "motion_log.eio" ]
  @ Probes.catalog_sources
  @ [ ("FIR filter/Op", Apps.Fir.source ~exclude_coefs:true) ]

type req =
  | Run of { src : int; policy : Lang.Interp.policy; seed : int }
  | Faults of { spec : C.spec; runtime : C.variant option; stride : int; seed : int }

let key = function
  | Run r -> Printf.sprintf "run/%d/%s/%d" r.src (Lang.Interp.policy_name r.policy) r.seed
  | Faults f ->
      Printf.sprintf "faults/%s/%s/%d/%d" f.spec.C.app_name
        (match f.runtime with None -> "all" | Some v -> C.variant_name v)
        f.stride f.seed

let payload srcs ~id = function
  | Run r ->
      Serve.Protocol.run_request ~id ~runtime:r.policy ~failure:paper ~seed:r.seed
        ~src:(snd srcs.(r.src)) ()
  | Faults f ->
      Serve.Protocol.faults_request ~id ?runtime:f.runtime
        ~sweep:(Faultkit.Campaign.Boundaries { stride = f.stride })
        ~seed:f.seed ~app:f.spec.C.app_name ()

let hot_set srcs =
  List.map
    (fun spec -> Faults { spec; runtime = None; stride = hot_stride; seed = 1 })
    [ Apps.Uni.lea; Apps.Uni.dma; Apps.Uni.temp; Apps.Fir.spec ]
  @ [ Faults { spec = Apps.Weather.spec; runtime = Some C.Easeio; stride = hot_stride; seed = 1 } ]
  @ List.concat_map
      (fun src ->
        List.concat_map
          (fun policy -> List.map (fun seed -> Run { src; policy; seed }) [ 1; 2 ])
          [ Lang.Interp.Easeio; Lang.Interp.Ink ])
      (List.init (Array.length srcs) Fun.id)

(* The request sequence for a workload seed: the class of each request
   comes from the seeded mix; within a class, requests cycle through a
   fixed list, so every seed sends the same set of programs and cells
   and differs only in order and in the fresh seeds. Fresh seeds never
   repeat within a run and never meet the hot set's. *)
let requests ~seed srcs hot ~blocks =
  let rng = Random.State.make [| seed; 0x7271 |] in
  let base = 1_000_000 + (Random.State.int rng 1000 * 100_000) in

  let cells = [| C.Easeio; C.Easeio_op |] in
  let seen = Hashtbl.create 3 in
  let nth cls =
    let k = Option.value (Hashtbl.find_opt seen cls) ~default:0 in
    Hashtbl.replace seen cls (k + 1);
    k
  in
  Array.mapi
    (fun i cls ->
      let fresh = base + i in
      let k = nth cls in
      ( cls,
        match cls with
        | Mix.Hit -> hot.(k mod Array.length hot)
        | Mix.Cold_run ->
            Run { src = k mod Array.length srcs; policy = Lang.Interp.Easeio; seed = fresh }
        | Mix.Cold_cell ->
            Faults
              {
                spec = Apps.Weather.spec;
                runtime = Some cells.(k mod Array.length cells);
                stride = cold_stride;
                seed = fresh;
              } ))
    (Mix.classes ~seed ~blocks)

(* {1 The server process} *)

type server = { pid : int; port : int; out : in_channel }

let spawn cli =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--port"; "0"; "--jobs"; string_of_int server_jobs |]
      devnull w Unix.stderr
  in
  Unix.close w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr r in
  let line = input_line out in
  let port = Scanf.sscanf line "easeio serve: listening on 127.0.0.1:%d" Fun.id in
  { pid; port; out }

let rec wait_exit pid ~tries =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when tries > 0 ->
      Unix.sleepf 0.05;
      wait_exit pid ~tries:(tries - 1)
  | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
  | _ -> ()

(* Graceful shutdown request; SIGKILL if the server does not exit. *)
let stop srv =
  (try
     let c = Serve.Client.connect (Serve.Server.Tcp srv.port) in
     ignore (Serve.Client.shutdown c);
     Serve.Client.close c
   with _ -> ());
  wait_exit srv.pid ~tries:200;
  close_in_noerr srv.out

let with_server cli f =
  let srv = spawn cli in
  Fun.protect ~finally:(fun () -> stop srv) (fun () -> f srv)

(* {1 Load} *)

type sample = {
  i : int;
  cls : Mix.cls;
  lat : float;
  error : string option;  (** error frame, cancellation or transport failure *)
  digest : string;
  bytes : int;
  frames : int;
}

let rpc spans c ~op ~tid ~id p =
  let frames = ref 1 in
  let r =
    S.with_ spans ~op ~tid "serve.Client.rpc" (fun _ ->
        Serve.Client.rpc ~on_frame:(fun _ -> incr frames) c ~id p)
  in
  (r, !frames)

(* Warm the hot set: every hot request once, split over the clients. *)
let warm spans conns srcs hot =
  let n = Array.length conns in
  let threads =
    Array.mapi
      (fun t c ->
        Thread.create
          (fun () ->
            Array.iteri
              (fun i r ->
                if i mod n = t then
                  match rpc spans c ~op:(-1) ~tid:t ~id:(i + 1) (payload srcs ~id:(i + 1) r) with
                  | Ok _, _ -> ()
                  | Error _, _ -> failwith ("warming " ^ key r))
              hot)
          ())
      conns
  in
  Array.iter Thread.join threads

(* One connection per client thread; never more than there are CPUs,
   or the load generator would measure its own scheduling. *)
let connect_clients ~clients ~nproc srv =
  if clients > nproc then invalid_arg "serve load: more client threads than CPUs";
  Array.init clients (fun _ -> Serve.Client.connect_retry (Serve.Server.Tcp srv.port))

(* Closed loop: each client sends its next request when the previous
   reply is complete. Requests are taken in sequence order until at
   least [min_requests] are done and [seconds] have passed. *)
let load spans conns srcs reqs ~min_requests ~seconds =
  let next = Atomic.make 0 in
  let t0 = now () in
  let per_thread =
    Array.mapi
      (fun tid c ->
        let acc = ref [] in
        let th =
          Thread.create
            (fun () ->
              let rec loop () =
                let i = Atomic.fetch_and_add next 1 in
                if i < Array.length reqs && (i < min_requests || now () -. t0 < seconds) then begin
                  let cls, r = reqs.(i) in
                  let body = payload srcs ~id:(i + 1) r in
                  let s0 = now () in
                  let res, frames =
                    try rpc spans c ~op:i ~tid ~id:(i + 1) body
                    with e -> (Error (`Transport (Printexc.to_string e)), 0)
                  in
                  let lat = now () -. s0 in
                  let s =
                    match res with
                    | Ok o ->
                        {
                          i;
                          cls;
                          lat;
                          error = None;
                          digest = Digest.string o.Serve.Client.doc;
                          bytes = String.length o.Serve.Client.doc;
                          frames;
                        }
                    | Error e ->
                        let error =
                          match e with
                          | `Error (code, msg) -> code ^ ": " ^ msg
                          | `Cancelled -> "cancelled"
                          | `Transport msg -> "transport: " ^ msg
                        in
                        { i; cls; lat; error = Some error; digest = ""; bytes = 0; frames }
                  in
                  acc := s :: !acc;
                  loop ()
                end
              in
              loop ())
            ()
        in
        (th, acc))
      conns
  in
  Array.iter (fun (th, _) -> Thread.join th) per_thread;
  let wall = now () -. t0 in
  let samples = Array.concat (Array.to_list (Array.map (fun (_, acc) -> Array.of_list !acc) per_thread)) in
  Array.sort (fun a b -> compare a.i b.i) samples;
  (samples, wall, (t0, t0 +. wall))

(* {1 Output check and simulated results} *)

let int_field doc k =
  match doc with
  | Json.Obj kv -> ( match List.assoc_opt k kv with Some (Json.Int n) -> n | _ -> 0)
  | _ -> 0

let float_field doc k =
  match doc with
  | Json.Obj kv -> (
      match List.assoc_opt k kv with Some (Json.Float f) -> f | Some (Json.Int n) -> float_of_int n | _ -> 0.)
  | _ -> 0.

let io_of doc =
  match doc with
  | Json.Obj kv -> (
      match List.assoc_opt "io_executions" kv with
      | Some (Json.Obj io) -> List.map (function k, Json.Int n -> (k, n) | k, _ -> (k, 0)) io
      | _ -> [])
  | _ -> []

type expected = { doc_digest : string; run_doc : Json.t option }

(* The in-process one-shot document for each distinct request. *)
let expected spans srcs reqs samples =
  let tbl = Hashtbl.create 256 in
  let emit = ref [] and assemble = ref [] in
  Array.iter
    (fun s ->
      let r = snd reqs.(s.i) in
      let k = key r in
      if not (Hashtbl.mem tbl k) then
        let e =
          match r with
          | Run { src; policy; seed } ->
              let j =
                S.with_ spans "serve.Oneshot.run_doc" (fun _ ->
                    Serve.Oneshot.run_doc ~policy ~failure:paper ~seed (snd srcs.(src)))
              in
              let d, dt = time (fun () -> S.with_ spans "json.to_string" (fun _ -> Json.to_string j)) in
              emit := dt :: !emit;
              { doc_digest = Digest.string d; run_doc = Some j }
          | Faults { spec; runtime; stride; seed } ->
              let sweep = Faultkit.Campaign.Boundaries { stride } in
              let variants = match runtime with None -> C.all_variants | Some v -> [ v ] in
              let cells =
                List.map
                  (fun v ->
                    S.with_ spans "serve.Oneshot.faults_cell" (fun _ ->
                        Serve.Oneshot.faults_cell ~sweep ~seed spec v))
                  variants
              in
              let d, dt =
                time (fun () ->
                    S.with_ spans "serve.Oneshot.faults_doc" (fun _ ->
                        Serve.Oneshot.faults_doc ~app:spec.C.app_name ~sweep ~seed cells))
              in
              assemble := dt :: !assemble;
              { doc_digest = Digest.string d; run_doc = None }
        in
        Hashtbl.add tbl k e)
    samples;
  (tbl, !emit, !assemble)

(* Mean simulated time (ms), energy (µJ) and redundant I/O of the EaseIO
   runs among the first [min_requests] requests; redundancy is counted
   against each program's continuous-power run. *)
let sim srcs reqs tbl =
  let goldens = Hashtbl.create 8 in
  let golden src =
    match Hashtbl.find_opt goldens src with
    | Some g -> g
    | None ->
        let g =
          io_of
            (Serve.Oneshot.run_doc ~policy:Lang.Interp.Easeio ~failure:Platform.Failure.No_failures
               ~seed:0 (snd srcs.(src)))
        in
        Hashtbl.add goldens src g;
        g
  in
  let n = ref 0 and us = ref 0 and nj = ref 0. and red = ref 0 in
  for i = 0 to min_requests - 1 do
    match snd reqs.(i) with
    | Run { src; policy = Lang.Interp.Easeio; _ } as r -> (
        match (Hashtbl.find tbl (key r)).run_doc with
        | Some d ->
            let g = golden src in
            incr n;
            us := !us + int_field d "total_time_us";
            nj := !nj +. float_field d "energy_nj";
            red :=
              !red
              + List.fold_left
                  (fun a (k, c) -> a + max 0 (c - Option.value (List.assoc_opt k g) ~default:0))
                  0 (io_of d)
        | None -> ())
    | _ -> ()
  done;
  let f = float_of_int !n in
  (float_of_int !us /. f /. 1e3, !nj /. f /. 1e3, float_of_int !red /. f, !n)

(* {1 The workload} *)

type pass = {
  samples : sample array;
  wall : float;
  window : float * float;  (** the timed phase *)
  setups : float list;
  rss : float;
  stats : Json.t;
  ping : St.samples;
}

let cache_stat stats k =
  match stats with
  | Json.Obj kv -> (
      match List.assoc_opt "cache" kv with Some c -> float_of_int (int_field c k) | None -> 0.)
  | _ -> 0.

(* Set-up (spawn, connect, warm) measured [k] times on fresh servers;
   the last server carries the timed phase. *)
let pass spans ~(ctx : ctx) ~k srcs hot reqs ~min_requests ~seconds =
  let setup_once f =
    let t0 = now () in
    with_server ctx.cli (fun srv ->
        let conns = connect_clients ~clients:(min clients_wanted ctx.nproc) ~nproc:ctx.nproc srv in
        Fun.protect
          ~finally:(fun () -> Array.iter Serve.Client.close conns)
          (fun () ->
            warm (S.create ~enabled:false) conns srcs hot;
            f srv conns (now () -. t0)))
  in
  let setups = List.init (k - 1) (fun _ -> setup_once (fun _ _ dt -> dt)) in
  setup_once (fun srv conns dt ->
      let samples, wall, window = load spans conns srcs reqs ~min_requests ~seconds in
      let rss = peak_rss_mb ~pid:srv.pid () in
      let stats = match Serve.Client.stats conns.(0) with Ok j -> j | Error e -> failwith ("stats: " ^ e) in
      let ping = St.samples () in
      for _ = 1 to 200 do
        let (), dt =
          time (fun () ->
              match S.with_ spans "serve.Client.ping" (fun _ -> Serve.Client.ping conns.(0)) with
              | Ok () -> ()
              | Error e -> failwith ("ping: " ^ e))
        in
        St.push ping dt
      done;
      { samples; wall; window; setups = setups @ [ dt ]; rss; stats; ping })

let run (ctx : ctx) =
  let srcs = Array.of_list (sources ()) in
  let hot = Array.of_list (hot_set srcs) in
  let blocks = 4 * min_requests / Mix.block in
  let reqs = requests ~seed:ctx.seed srcs hot ~blocks in
  let off = S.create ~enabled:false in
  let check spans p =
    let tbl, emit, assemble = expected spans srcs reqs p.samples in
    let wrong =
      List.filter_map
        (fun s ->
          let k = key (snd reqs.(s.i)) in
          match s.error with
          | Some e -> Some (s.i, k, e)
          | None when s.digest <> (Hashtbl.find tbl k).doc_digest ->
              Some (s.i, k, "bytes differ from the one-shot document")
          | None -> None)
        (Array.to_list p.samples)
    in
    let notes =
      List.map (fun (i, k, why) -> Printf.sprintf "check: request %d (%s) failed: %s" i k why) wrong
    in
    (tbl, List.length wrong, notes, emit, assemble)
  in
  let class_lat p cls =
    let l = St.samples () in
    Array.iter (fun s -> if s.cls = cls then St.push l s.lat) p.samples;
    l
  in
  let median_ms l = if St.count l = 0 then 0. else (St.sorted l).(St.rank ~n:(St.count l) 50.) *. 1e3 in
  if not ctx.trace then begin
    let p = pass off ~ctx ~k:3 srcs hot reqs ~min_requests ~seconds:ctx.seconds in
    let lat = St.samples () in
    Array.iter (fun s -> St.push lat s.lat) p.samples;
    let p50, p99, lat_note = latency_ms ~what:"request" lat in
    let tbl, wrong, wrong_notes, _, _ = check off p in
    let sim_ms, sim_uj, sim_red, sim_n = sim srcs reqs tbl in
    let n = Array.length p.samples in
    {
      attempted = n;
      failed = wrong;
      e2e =
        [
          ("setup_s", St.median p.setups);
          ("ops_per_s", float_of_int n /. p.wall);
          ("latency_p50_ms", p50);
          ("latency_p99_ms", p99);
          ("peak_rss_mb", p.rss);
          ("sim_total_ms", sim_ms);
          ("sim_energy_uj", sim_uj);
          ("sim_redundant_io", sim_red);
        ];
      layer = [];
      notes =
        [
          Printf.sprintf "setup: %d set-ups (spawn, connect, warm %d hot requests), median %.4f s"
            (List.length p.setups) (Array.length hot) (St.median p.setups);
          Printf.sprintf "load: %d clients closed loop over TCP, %d requests in %.3f s" (min clients_wanted ctx.nproc)
            n p.wall;
          lat_note;
        ]
        @ List.map
            (fun cls ->
              let l = class_lat p cls in
              Printf.sprintf "class %s: %d requests (%.1f%%), median %.3f ms" (Mix.name cls) (St.count l)
                (100. *. float_of_int (St.count l) /. float_of_int n)
                (median_ms l))
            Mix.all
        @ wrong_notes
        @ [
            Printf.sprintf "check: %d responses differ from the one-shot documents or failed" wrong;
            Printf.sprintf "sim: means over %d EaseIO run responses among the first %d requests" sim_n
              min_requests;
          ];
      spans = [];
      window = (0., 0.);
    }
  end
  else begin
    (* half the requests per pass: the traced run makes two passes *)
    let min_requests = min_requests / 2 in
    let plain = pass off ~ctx ~k:1 srcs hot reqs ~min_requests ~seconds:0. in
    let spans = S.create ~enabled:true in
    let g0 = gc_counts () in
    let p = pass spans ~ctx ~k:1 srcs hot reqs ~min_requests ~seconds:0. in
    let g1 = gc_counts () in
    let _, wrong, wrong_notes, emit, assemble = check spans p in
    let n = float_of_int (Array.length p.samples) in
    let mean f = Array.fold_left (fun a s -> a +. f s) 0. p.samples /. n in
    let hits = cache_stat p.stats "hits" and misses = cache_stat p.stats "misses" in
    let lang_vm = Probes.lang_vm spans ~seed:ctx.seed ~runs:20 (Array.to_list srcs) in
    {
      attempted = Array.length p.samples;
      failed = wrong;
      e2e = [];
      layer =
        lang_vm
        @ [
            ("serve.hit_ms", median_ms (class_lat p Mix.Hit));
            ("serve.cold_run_ms", median_ms (class_lat p Mix.Cold_run));
            ("serve.cold_cell_ms", median_ms (class_lat p Mix.Cold_cell));
            ("serve.ping_rtt_ms", median_ms p.ping);
            ("serve.frames_per_request", mean (fun s -> float_of_int s.frames));
            ("serve.response_bytes", mean (fun s -> float_of_int s.bytes));
            ("serve.assemble_ms", St.mean assemble *. 1e3);
            ("serve.hit_ratio", hits /. Float.max 1. (hits +. misses));
            ("serve.computes", cache_stat p.stats "computes");
            ("serve.evictions", cache_stat p.stats "evictions");
            ("serve.queue_max_depth", float_of_int (int_field p.stats "queue_max_depth"));
            ("json.emit_ms", St.mean emit *. 1e3);
            ("trace.overhead_s", p.wall -. plain.wall);
          ]
        @ Probes.gc_per_op ~ops:(Array.length p.samples) g0 g1;
      notes =
        wrong_notes
        @ [
          Printf.sprintf "traced pass %.3f s; untraced %.3f s" p.wall plain.wall;
          Printf.sprintf "ping rtt median %.4f ms over %d pings; hit median %.3f ms" (median_ms p.ping)
            (St.count p.ping) (median_ms (class_lat p Mix.Hit));
        ];
      spans = S.spans spans;
      window = p.window;
    }
  end
