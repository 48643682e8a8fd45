(* Wire-protocol contract tests for the campaign service: spawn the
   real `easeio serve` binary and talk to it over a hand-rolled socket
   client — 4-byte big-endian length prefix plus JSON — so the framing
   itself (not the Serve.Client library) is what gets exercised. Pins
   the stable error codes documented in lib/serve/protocol.ml:
   malformed frames, oversized payloads, unknown fields/commands/apps,
   bad ids, cancel of an unknown target, half-closed sockets, and the
   SIGTERM exit status. The server must survive everything here. *)

let cli = Sys.argv.(1)

let failures = ref 0
let ran = ref 0

let fail name fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s: %s\n%!" name msg)
    fmt

let ok name = Printf.printf "ok   %s\n%!" name

(* {1 Raw framing} *)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      let n = Unix.write fd b off (Bytes.length b - off) in
      go (off + n)
  in
  go 0

let frame payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  Bytes.to_string hdr ^ payload

let send fd payload = write_all fd (frame payload)

(* Read exactly [n] bytes; [None] on EOF. *)
let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Some (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> None
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None
  in
  go 0

let recv fd =
  match read_exact fd 4 with
  | None -> None
  | Some hdr ->
      let b i = Char.code hdr.[i] in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      read_exact fd n

let has_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Expect the next frame to carry all [subs] as substrings. *)
let expect_frame name fd subs =
  incr ran;
  match recv fd with
  | None -> fail name "connection closed, wanted a frame with %s" (String.concat " + " subs)
  | Some payload ->
      if List.for_all (has_sub payload) subs then ok name
      else fail name "frame %S lacks %s" payload (String.concat " + " subs)

let expect_eof name fd =
  incr ran;
  match recv fd with
  | None -> ok name
  | Some payload -> fail name "wanted EOF, got frame %S" payload

(* {1 Server lifecycle} *)

let sock_path = Filename.temp_file "easeio_serve_proto" ".sock"

let spawn_server () =
  Sys.remove sock_path;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock_path; "--jobs"; "2" |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  pid

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec retry n =
    match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n > 0 ->
        Unix.sleepf 0.05;
        retry (n - 1)
  in
  retry 200

let with_conn f =
  let fd = connect () in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

(* The document that follows a request's result frame; [None] when the
   stream ends or an error frame comes first. *)
let await_result fd =
  let rec go steps =
    if steps = 0 then None
    else
      match recv fd with
      | None -> None
      | Some p when has_sub p {|"frame":"result"|} -> recv fd
      | Some p when has_sub p {|"frame":"error"|} -> None
      | Some _ -> go (steps - 1)
  in
  go 10_000

(* {1 The contract} *)

let () =
  (* a wedged server must fail the suite, not hang CI *)
  ignore (Unix.alarm 120);
  let pid = spawn_server () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Sys.remove sock_path with Sys_error _ -> ())
  @@ fun () ->
  with_conn (fun fd ->
      send fd {|{"cmd":"ping"}|};
      expect_frame "ping answers pong" fd [ {|"frame":"pong"|} ];
      (* a malformed JSON payload costs one frame, not the connection *)
      send fd "{not json";
      expect_frame "bad JSON -> bad-frame" fd [ {|"frame":"error"|}; {|"code":"bad-frame"|} ];
      send fd "42";
      expect_frame "non-object JSON -> bad-frame" fd [ {|"code":"bad-frame"|} ];
      send fd {|{"cmd":"frobnicate"}|};
      expect_frame "unknown command -> bad-request" fd
        [ {|"code":"bad-request"|}; "unknown command" ];
      (* request-parse rejections are connection-level (id 0): the
         request never entered the id space *)
      send fd {|{"id":3,"cmd":"faults","app":"Temp.","chunk":4}|};
      expect_frame "unknown field -> bad-request" fd
        [ {|"id":0|}; {|"code":"bad-request"|}; "unknown field" ];
      send fd {|{"id":4,"cmd":"faults","app":"Temp.","sweep":"every-other-run"}|};
      expect_frame "bad sweep spec -> bad-request" fd [ {|"id":0|}; {|"code":"bad-request"|} ];
      (* out-of-range numbers are refused at parse time, as the CLI
         refuses them *)
      List.iter
        (fun (name, req) ->
          send fd req;
          expect_frame name fd [ {|"id":0|}; {|"code":"bad-request"|} ])
        [
          ("fuzz budget 0 -> bad-request", {|{"id":8,"cmd":"fuzz","count":1,"budget":0}|});
          ( "fuzz max_shrink -1 -> bad-request",
            {|{"id":9,"cmd":"fuzz","count":1,"max_shrink":-1}|} );
          ( "explore max_states 0 -> bad-request",
            {|{"id":10,"cmd":"explore","app":"lea","max_states":0}|} );
          ("explore depth -1 -> bad-request", {|{"id":11,"cmd":"explore","app":"lea","depth":-1}|});
        ];
      send fd {|{"cmd":"run","src":"program t;"}|};
      expect_frame "job without id -> bad-request" fd
        [ {|"code":"bad-request"|}; "positive" ];
      send fd {|{"id":5,"cmd":"run","src":"task oops {}","seed":1}|};
      expect_frame "syntax error -> bad-request" fd
        [ {|"id":5|}; {|"code":"bad-request"|}; "parse error" ];
      send fd {|{"id":6,"cmd":"faults","app":"nosuchapp"}|};
      expect_frame "unknown app -> unknown-app" fd [ {|"id":6|}; {|"code":"unknown-app"|} ];
      send fd {|{"cmd":"cancel","target":99}|};
      expect_frame "cancel of unknown target -> error at target id" fd
        [ {|"id":99|}; {|"code":"bad-request"|} ];
      (* still healthy after every rejection above *)
      send fd {|{"cmd":"ping"}|};
      expect_frame "connection survives rejected requests" fd [ {|"frame":"pong"|} ]);
  (* an oversized announced length desynchronizes the stream: the
     server reports it and hangs up — and must still accept fresh
     connections afterwards *)
  with_conn (fun fd ->
      write_all fd "\x7f\xff\xff\xff";
      expect_frame "oversize header -> oversize error" fd
        [ {|"frame":"error"|}; {|"code":"oversize"|} ];
      expect_eof "oversize hangs up" fd);
  with_conn (fun fd ->
      send fd {|{"cmd":"ping"}|};
      expect_frame "server survives an oversize peer" fd [ {|"frame":"pong"|} ]);
  (* duplicate in-flight id is rejected without killing the original
     request: both frames land in one write so the reader sees the
     duplicate while the first is still running *)
  with_conn (fun fd ->
      let req id =
        Printf.sprintf
          {|{"id":%d,"cmd":"faults","app":"Temp.","runtime":"easeio","sweep":"boundaries:1","seed":1}|}
          id
      in
      write_all fd (frame (req 7) ^ frame (req 7));
      let saw_dup = ref false and saw_result = ref false in
      let deadline = ref 0 in
      while (not (!saw_dup && !saw_result)) && !deadline < 10_000 do
        incr deadline;
        match recv fd with
        | None -> deadline := 10_000
        | Some p ->
            if has_sub p {|"code":"bad-request"|} && has_sub p "already in flight" then
              saw_dup := true
            else if has_sub p {|"frame":"result"|} then begin
              saw_result := true;
              ignore (recv fd)
            end
      done;
      incr ran;
      if !saw_dup && !saw_result then ok "duplicate id rejected, original completes"
      else fail "duplicate id rejected, original completes" "dup=%b result=%b" !saw_dup !saw_result);
  (* a half-closed peer (no more requests coming) still receives the
     full streamed response for what it already asked *)
  with_conn (fun fd ->
      send fd
        {|{"id":8,"cmd":"faults","app":"Temp.","runtime":"easeio","sweep":"boundaries:64","seed":1}|};
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      incr ran;
      match await_result fd with
      | Some doc when has_sub doc {|"boundaries_total"|} ->
          ok "half-closed socket still streams result"
      | doc ->
          fail "half-closed socket still streams result" "document: %s"
            (Option.value doc ~default:"(none)"));
  (* depth 0 explores the root state alone, served as from the CLI *)
  with_conn (fun fd ->
      send fd {|{"id":12,"cmd":"explore","app":"lea","depth":0}|};
      incr ran;
      match await_result fd with
      | Some doc when has_sub doc {|"depth": 0|} && has_sub doc {|"states": 1,|} ->
          ok "explore depth 0 -> result"
      | doc -> fail "explore depth 0 -> result" "document: %s" (Option.value doc ~default:"(none)"));
  (* SIGTERM is a clean exit: workers joined, socket unlinked, code 0 *)
  incr ran;
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ok "SIGTERM -> exit 0"
  | _, Unix.WEXITED c -> fail "SIGTERM -> exit 0" "exit %d" c
  | _, Unix.WSIGNALED s -> fail "SIGTERM -> exit 0" "killed by signal %d" s
  | _, Unix.WSTOPPED s -> fail "SIGTERM -> exit 0" "stopped by signal %d" s);
  incr ran;
  if Sys.file_exists sock_path then fail "socket path unlinked on shutdown" "still exists"
  else ok "socket path unlinked on shutdown";
  Printf.printf "%d/%d ok\n" (!ran - !failures) !ran;
  if !failures > 0 then exit 1
