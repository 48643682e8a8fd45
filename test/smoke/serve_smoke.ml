(* End-to-end smoke for the campaign service (`dune build @serve-smoke`):
   start the real `easeio serve` binary, once on a Unix-domain socket and
   once on a TCP loopback port, push the Weather charge-boundary sweep
   through the real `easeio client` twice (cold, then warm from the
   result cache), diff both documents byte-for-byte against the one-shot
   `easeio faults --json` path, and shut the server down with SIGTERM.
   Everything here is the shipped binary talking to itself — no test
   libraries in the loop. *)

let cli = Sys.argv.(1)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "serve-smoke: %s\n%!" msg;
      exit 1)
    fmt

let run_cmd args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) devnull devnull Unix.stderr in
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "%s exited %d" (String.concat " " args) c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      die "%s killed by signal %d" (String.concat " " args) s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Servers still running when the driver exits (a [die] mid-leg) are
   killed, so a failed smoke leaves no process behind. *)
let servers = ref []

let () =
  at_exit (fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !servers)

(* Start [easeio serve ARGS] and return its pid once it prints its
   "listening on ADDR" line, with that line. *)
let start_server args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: "serve" :: args)) devnull out_w Unix.stderr
  in
  Unix.close devnull;
  Unix.close out_w;
  servers := pid :: !servers;
  let ic = Unix.in_channel_of_descr out_r in
  match input_line ic with
  | line ->
      close_in ic;
      (pid, line)
  | exception End_of_file -> die "serve %s exited before listening" (String.concat " " args)

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  servers := List.filter (( <> ) pid) !servers;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> die "server exited %d after SIGTERM" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> die "server killed by signal %d" s

let spec = {|{"id":1,"cmd":"faults","app":"Weather App.","sweep":"boundaries:100","seed":1}|}

(* One server: a cold then a warm (cached) client request, both
   byte-diffed against the one-shot document, then SIGTERM. [addr_of]
   turns the server's listening line into the client's address flags. *)
let leg ~name ~path ~oneshot serve_args addr_of =
  let server, line = start_server (serve_args @ [ "--jobs"; "2" ]) in
  let addr = addr_of line in
  let fetch tag =
    let out = path (Printf.sprintf "%s-%s.json" name tag) in
    run_cmd (("client" :: addr) @ [ spec; "--out"; out ]);
    read_file out
  in
  let cold = fetch "cold" in
  let warm = fetch "warm" in
  if cold <> oneshot then
    die "%s: cold server document differs from one-shot easeio faults --json" name;
  if warm <> cold then die "%s: warm (cached) document differs from the cold one" name;
  stop_server server

let () =
  (* hard cap: a wedged server fails the alias instead of hanging CI *)
  ignore (Unix.alarm 60);
  let dir = Filename.temp_file "easeio_serve_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  run_cmd [ "faults"; "Weather App."; "--sweep"; "boundaries:100"; "--seed"; "1"; "--jobs"; "2";
            "--json"; path "oneshot.json" ];
  let oneshot = read_file (path "oneshot.json") in
  let sock = path "serve.sock" in
  leg ~name:"unix" ~path ~oneshot [ "--socket"; sock ] (fun _ -> [ "--socket"; sock ]);
  leg ~name:"tcp" ~path ~oneshot [ "--port"; "0" ] (fun line ->
      match Scanf.sscanf line "easeio serve: listening on 127.0.0.1:%d " Fun.id with
      | port -> [ "--port"; string_of_int port ]
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          die "tcp: no port in the listening line %S" line);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Printf.printf
    "serve-smoke: unix and tcp: cold == warm == one-shot (%d bytes), clean SIGTERM exit\n"
    (String.length oneshot)
