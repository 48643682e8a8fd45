(* Cram-style CLI contract tests: spawn the real easeio binary and pin
   exit codes and the stable stderr prefixes scripts are allowed to
   depend on. Argv.(0) is the binary path, the rest are fixture .eio
   files (see ./dune). *)

let cli = Sys.argv.(1)
let fixture name = Sys.argv.(2) ^ "/" ^ name

let failures = ref 0
let ran = ref 0

let quote = Filename.quote

(* Run [cli args], returning (exit code, first stderr line). With
   [timeout_s], a command still running after that many seconds is
   stopped and exits 124, so a hang fails the check instead of the
   suite. *)
let run ?timeout_s args =
  let err = Filename.temp_file "easeio_cli_test" ".stderr" in
  let cmd =
    Printf.sprintf "%s%s %s >/dev/null 2>%s"
      (match timeout_s with Some s -> Printf.sprintf "timeout %d " s | None -> "")
      (quote cli)
      (String.concat " " (List.map quote args))
      (quote err)
  in
  let code =
    match Sys.command cmd with
    | c -> c
  in
  let ic = open_in err in
  let first_line = try input_line ic with End_of_file -> "" in
  close_in ic;
  Sys.remove err;
  (code, first_line)

let check ~name ~args ~code ?stderr_prefix ?timeout_s () =
  incr ran;
  let got_code, got_err = run ?timeout_s args in
  let prefix_ok =
    match stderr_prefix with
    | None -> true
    | Some p ->
        String.length got_err >= String.length p && String.sub got_err 0 (String.length p) = p
  in
  if got_code <> code || not prefix_ok then begin
    incr failures;
    Printf.printf "FAIL %s: exit %d (want %d), stderr %S%s\n" name got_code code got_err
      (match stderr_prefix with Some p -> Printf.sprintf " (want prefix %S)" p | None -> "")
  end
  else Printf.printf "ok   %s\n" name

let () =
  (* check *)
  check ~name:"check: clean program exits 0" ~args:[ "check"; fixture "greenhouse.eio" ] ~code:0
    ();
  check ~name:"check: matched --expect exits 0"
    ~args:[ "check"; fixture "lints/w0403_unprivatized_war.eio"; "--expect"; "W0403" ]
    ~code:0 ();
  check ~name:"check: unmatched --expect exits 1"
    ~args:[ "check"; fixture "greenhouse.eio"; "--expect"; "W0403" ]
    ~code:1 ~stderr_prefix:"easeio check: expected exactly W0403" ();
  (* compile *)
  check ~name:"compile: clean program exits 0"
    ~args:[ "compile"; fixture "greenhouse.eio"; "-o"; Filename.temp_file "easeio" ".eio" ]
    ~code:0 ();
  check ~name:"compile: erroneous program exits 1"
    ~args:[ "compile"; fixture "lints/e0301_flag_collision.eio" ]
    ~code:1 ~stderr_prefix:"error[E0301]" ();
  check ~name:"compile: unknown pass exits 1"
    ~args:[ "compile"; fixture "greenhouse.eio"; "--dump-after"; "nosuchpass" ]
    ~code:1 ~stderr_prefix:"easeio compile: unknown pass" ();
  (* faults *)
  check ~name:"faults: safe app sweep exits 0"
    ~args:[ "faults"; "Temp."; "--sweep"; "boundaries:400"; "--jobs"; "2" ]
    ~code:0 ();
  check ~name:"faults: unknown app exits 1" ~args:[ "faults"; "nosuchapp" ] ~code:1
    ~stderr_prefix:"unknown application" ();
  (* fuzz *)
  check ~name:"fuzz: small clean campaign exits 0"
    ~args:[ "fuzz"; "--count"; "5"; "--seed"; "1"; "--jobs"; "2" ]
    ~code:0 ();
  check ~name:"fuzz: replayed reproducer exits 0"
    ~args:[ "fuzz"; "--replay"; fixture "fuzz-corpus/fuzz_2127312984094606724.eio" ]
    ~code:0 ();
  check ~name:"fuzz: ablated replay exits 1"
    ~args:
      [ "fuzz"; "--replay"; fixture "fuzz-corpus/fuzz_2127312984094606724.eio"; "--ablate-regions" ]
    ~code:1 ~stderr_prefix:"easeio fuzz: " ();
  (* out-of-range numeric options are usage errors, never an uncaught
     exception or a silent run *)
  check ~name:"app: --runs 0 exits 1" ~args:[ "app"; "lea"; "--runs"; "0" ] ~code:1
    ~stderr_prefix:"easeio app: --runs must be >= 1" ();
  check ~name:"fuzz: --count=-1 exits 1" ~args:[ "fuzz"; "--count=-1" ] ~code:1
    ~stderr_prefix:"easeio fuzz: --count must be >= 1" ();
  check ~name:"fuzz: --count 0 exits 1" ~args:[ "fuzz"; "--count"; "0" ] ~code:1
    ~stderr_prefix:"easeio fuzz: --count must be >= 1" ();
  check ~name:"fuzz: --budget 0 exits 1" ~args:[ "fuzz"; "--count"; "1"; "--budget"; "0" ] ~code:1
    ~stderr_prefix:"easeio fuzz: --budget must be >= 1" ();
  check ~name:"fuzz: --budget=-3 exits 1" ~args:[ "fuzz"; "--count"; "1"; "--budget=-3" ] ~code:1
    ~stderr_prefix:"easeio fuzz: --budget must be >= 1" ();
  check ~name:"fuzz: --replay --budget 0 exits 1"
    ~args:
      [ "fuzz"; "--replay"; fixture "fuzz-corpus/fuzz_2127312984094606724.eio"; "--budget"; "0" ]
    ~code:1 ~stderr_prefix:"easeio fuzz: --budget must be >= 1" ();
  check ~name:"fuzz: --max-shrink=-1 exits 1"
    ~args:[ "fuzz"; "--count"; "1"; "--max-shrink=-1" ]
    ~code:1 ~stderr_prefix:"easeio fuzz: --max-shrink must be >= 0" ();
  check ~name:"explore: --depth=-1 exits 1" ~args:[ "explore"; "lea"; "--depth=-1" ] ~code:1
    ~stderr_prefix:"easeio explore: --depth must be >= 0" ();
  check ~name:"explore: --max-states 0 exits 1"
    ~args:[ "explore"; "lea"; "--max-states"; "0" ]
    ~code:1 ~stderr_prefix:"easeio explore: --max-states must be >= 1" ();
  (* a port outside 0..65535 must not wrap to another port at bind *)
  check ~name:"serve: --port 70000 exits 1" ~args:[ "serve"; "--port"; "70000" ] ~code:1
    ~stderr_prefix:"easeio serve: --port must be in 0..65535" ~timeout_s:10 ();
  check ~name:"client: --port=-1 exits 1"
    ~args:[ "client"; "--port=-1"; {|{"cmd":"ping"}|} ]
    ~code:1 ~stderr_prefix:"easeio client: --port must be in 0..65535" ~timeout_s:10 ();
  (* run: a program that fails to parse gets check's diagnostic, one that
     fails while running gets its message; neither is an uncaught
     exception *)
  let source text =
    let path = Filename.temp_file "easeio_cli_test" ".eio" in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    path
  in
  let syntax = source "program p;\nnv int x@;\n" in
  let dma_oob =
    source
      "program p;\nnv int a[4];\nvol int b[2];\ntask t {\n  dma_copy(a[0], b[0], 4);\n  stop;\n}\n"
  in
  check ~name:"run: syntax error exits 1" ~args:[ "run"; syntax ] ~code:1
    ~stderr_prefix:"error[E0001]" ();
  List.iter
    (fun opts ->
      check
        ~name:(Printf.sprintf "run %s: runtime error exits 1" (String.concat " " opts))
        ~args:(("run" :: opts) @ [ dma_oob ])
        ~code:1
        ~stderr_prefix:(Printf.sprintf "easeio run: %s: dma_copy out of bounds" dma_oob)
        ())
    [ [ "--interp"; "vm" ]; [ "--interp"; "tree" ]; [ "--json" ] ];
  List.iter Sys.remove [ syntax; dma_oob ];
  Printf.printf "%d/%d ok\n" (!ran - !failures) !ran;
  if !failures > 0 then exit 1
