(* Client side of the campaign service: connect, send request
   payloads, stream frames back. Synchronous by design — one thread
   per connection is exactly the load-generator and test shape, and
   the protocol interleaves nothing within a connection except frames
   for distinct request ids, which [rpc] filters. *)

module Json = Trace.Json

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect (addr : Server.addr) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain, sockaddr =
    match addr with
    | Server.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Server.Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () ->
      Server.set_nodelay addr fd;
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* Poll-connect until the server is accepting (spawned-binary tests
   and the smoke harness race server startup). *)
let connect_retry ?(attempts = 100) ?(delay_s = 0.05) addr =
  let rec go n =
    match connect addr with
    | c -> c
    | exception (Unix.Unix_error _ | Sys_error _) when n > 1 ->
        Thread.delay delay_s;
        go (n - 1)
  in
  go attempts

let close t =
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Half-close the sending side: the server sees EOF but can still
   stream responses (used by the protocol contract tests). *)
let shutdown_send t = try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let send t payload = Wire.write_frame t.oc payload

type frame =
  | Progress of { id : int; hb : string }
  | Cell of { id : int; index : int; runtime : string; cached : bool }
  | Result of { id : int; cached : bool; doc : string }
  | Error_frame of { id : int; code : string; msg : string }
  | Cancelled of { id : int }
  | Pong
  | Stats of Json.t
  | Bye

let field fields key = List.assoc_opt key fields

let int_field fields key ~default =
  match field fields key with Some (Json.Int n) -> n | _ -> default

let string_field fields key ~default =
  match field fields key with Some (Json.String s) -> s | _ -> default

let bool_field fields key ~default =
  match field fields key with Some (Json.Bool b) -> b | _ -> default

(* Read and decode one frame. A [Result] header consumes the
   follow-up frame too and returns the document bytes verbatim. *)
let next t : (frame, string) result =
  match Wire.read_frame t.ic with
  | Error Wire.Closed -> Error "connection closed"
  | Error (Wire.Oversize n) -> Error (Printf.sprintf "oversized frame (%d bytes)" n)
  | Ok payload -> (
      match Json.of_string payload with
      | Error msg -> Error (Printf.sprintf "bad frame from server: %s" msg)
      | Ok (Json.Obj fields) -> (
          let id = int_field fields "id" ~default:0 in
          match string_field fields "frame" ~default:"" with
          | "progress" -> (
              match field fields "hb" with
              | Some hb -> Ok (Progress { id; hb = Json.to_string hb })
              | None -> Error "progress frame without hb")
          | "cell" ->
              Ok
                (Cell
                   {
                     id;
                     index = int_field fields "index" ~default:0;
                     runtime = string_field fields "runtime" ~default:"";
                     cached = bool_field fields "cached" ~default:false;
                   })
          | "result" -> (
              let cached = bool_field fields "cached" ~default:false in
              match Wire.read_frame t.ic with
              | Ok doc -> Ok (Result { id; cached; doc })
              | Error _ -> Error "connection closed before the result document")
          | "error" ->
              Ok
                (Error_frame
                   {
                     id;
                     code = string_field fields "code" ~default:"?";
                     msg = string_field fields "msg" ~default:"";
                   })
          | "cancelled" -> Ok (Cancelled { id })
          | "pong" -> Ok Pong
          | "stats" -> Ok (Stats (Json.Obj fields))
          | "bye" -> Ok Bye
          | f -> Error (Printf.sprintf "unknown frame kind %S" f))
      | Ok _ -> Error "bad frame from server: not an object")

type outcome = {
  doc : string;
  result_cached : bool;
  cells : int;  (** incremental cell frames observed *)
  cached_cells : int;
  heartbeats : int;
}

(* Send one job request and drive the connection until its terminal
   frame. Frames for other ids (pipelined requests) are ignored here. *)
let rpc ?(on_frame = fun (_ : frame) -> ()) t ~id payload :
    (outcome, [ `Error of string * string | `Cancelled | `Transport of string ]) result =
  send t payload;
  let cells = ref 0 and cached_cells = ref 0 and heartbeats = ref 0 in
  let rec loop () =
    match next t with
    | Error msg -> Error (`Transport msg)
    | Ok f -> (
        on_frame f;
        match f with
        | Result r when r.id = id ->
            Ok
              {
                doc = r.doc;
                result_cached = r.cached;
                cells = !cells;
                cached_cells = !cached_cells;
                heartbeats = !heartbeats;
              }
        | Error_frame e when e.id = id || e.id = 0 -> Error (`Error (e.code, e.msg))
        | Cancelled c when c.id = id -> Error `Cancelled
        | Cell c when c.id = id ->
            incr cells;
            if c.cached then incr cached_cells;
            loop ()
        | Progress p when p.id = id ->
            incr heartbeats;
            loop ()
        | _ -> loop ())
  in
  loop ()

let ping t =
  send t Protocol.ping_request;
  match next t with Ok Pong -> Ok () | Ok _ -> Error "unexpected frame" | Error e -> Error e

let stats t =
  send t Protocol.stats_request;
  match next t with
  | Ok (Stats j) -> Ok j
  | Ok _ -> Error "unexpected frame"
  | Error e -> Error e

let shutdown t =
  send t Protocol.shutdown_request;
  match next t with Ok Bye -> Ok () | Ok _ -> Error "unexpected frame" | Error e -> Error e

let cancel t ~target = send t (Protocol.cancel_request ~target)
