(* Request grammar and validation for the campaign service.

   Every frame payload is one JSON object with a "cmd" field. Job
   commands (run/faults/fuzz/explore) carry a positive client-chosen
   "id" that names the request in every frame streamed back; control
   commands (cancel/ping/stats/shutdown) are answered immediately.

   Validation is strict: a missing required field, an ill-typed value
   or an unknown field is a [bad-request] — silently ignoring unknown
   fields would let a misspelled option change what gets simulated
   while still returning a plausible document. The stable error codes
   (the contract pinned by test/cli) are:

     bad-frame    payload is not a JSON object
     oversize     announced frame length exceeds the server limit
     bad-request  unknown command, bad/missing/unknown field
     unknown-app  app name matches no (or several) catalog entries
     internal     a compute job raised
     shutdown     server is stopping

   Responses from the server are also single JSON objects, tagged by a
   "frame" field: progress | cell | result | error | cancelled | pong
   | stats | bye. A result frame announces the byte length of the
   verbatim one-shot document, which follows as the next raw frame —
   shipping the exact bytes (rather than re-emitting a parsed tree)
   is what makes the byte-identity guarantee float-proof. *)

module Json = Trace.Json

type error = { code : string; msg : string }

type request =
  | Run of {
      src : string;
      policy : Lang.Interp.policy;
      failure : Platform.Failure.spec;
      seed : int;
    }
  | Faults of {
      app : string;
      runtime : Apps.Common.variant option;  (** [None] = all four *)
      sweep : Faultkit.Campaign.sweep;
      seed : int;
    }
  | Fuzz of { options : Conformance.Fuzz.options }
  | Explore of {
      app : string;
      runtime : Apps.Common.variant;
      depth : int;
      max_states : int option;
      prune : bool;
      ablate_regions : bool;
      ablate_semantics : bool;
      seed : int;
    }

type control = Cancel of int | Ping | Stats | Shutdown
type incoming = Job of int * request | Control of control

let err code fmt = Printf.ksprintf (fun msg -> Error { code; msg }) fmt
let bad fmt = err "bad-request" fmt

let variant_of_string = function
  | "alpaca" -> Ok Apps.Common.Alpaca
  | "ink" -> Ok Apps.Common.Ink
  | "easeio" -> Ok Apps.Common.Easeio
  | "easeio-op" -> Ok Apps.Common.Easeio_op
  | s -> bad "unknown runtime %S (alpaca|ink|easeio|easeio-op)" s

let policy_of_string = function
  | "plain" -> Ok Lang.Interp.Plain
  | "alpaca" -> Ok Lang.Interp.Alpaca
  | "ink" -> Ok Lang.Interp.Ink
  | "easeio" -> Ok Lang.Interp.Easeio
  | s -> bad "unknown runtime %S (plain|alpaca|ink|easeio)" s

(* {1 Typed field access over one object} *)

let ( let* ) = Result.bind

let check_fields ~cmd ~allowed fields =
  let rec go = function
    | [] -> Ok ()
    | (k, _) :: tl ->
        if List.mem k allowed then go tl else bad "%s: unknown field %S" cmd k
  in
  go fields

let get_int fields ~cmd key ~default =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some (Json.Int n) -> Ok n
  | Some _ -> bad "%s: field %S must be an integer" cmd key

let get_bool fields ~cmd key ~default =
  match List.assoc_opt key fields with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> bad "%s: field %S must be a boolean" cmd key

let get_string_opt fields ~cmd key =
  match List.assoc_opt key fields with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> bad "%s: field %S must be a string" cmd key

let get_string fields ~cmd key =
  let* v = get_string_opt fields ~cmd key in
  match v with None -> bad "%s: missing required field %S" cmd key | Some s -> Ok s

(* {1 Per-command parsers} *)

let common = [ "id"; "cmd" ]

let parse_run fields =
  let cmd = "run" in
  let* () = check_fields ~cmd ~allowed:(common @ [ "src"; "runtime"; "failure"; "seed" ]) fields in
  let* src = get_string fields ~cmd "src" in
  let* runtime = get_string_opt fields ~cmd "runtime" in
  let* policy =
    match runtime with None -> Ok Lang.Interp.Easeio | Some s -> policy_of_string s
  in
  let* failure_s = get_string_opt fields ~cmd "failure" in
  let* failure =
    match failure_s with
    | None -> Ok Platform.Failure.No_failures
    | Some s -> (
        match Platform.Failure.of_string s with
        | Ok f -> Ok f
        | Error e -> bad "run: bad failure spec: %s" e)
  in
  let* seed = get_int fields ~cmd "seed" ~default:1 in
  Ok (Run { src; policy; failure; seed })

let parse_faults fields =
  let cmd = "faults" in
  let* () = check_fields ~cmd ~allowed:(common @ [ "app"; "runtime"; "sweep"; "seed" ]) fields in
  let* app = get_string fields ~cmd "app" in
  let* runtime_s = get_string_opt fields ~cmd "runtime" in
  let* runtime =
    match runtime_s with
    | None -> Ok None
    | Some s ->
        let* v = variant_of_string s in
        Ok (Some v)
  in
  let* sweep_s = get_string_opt fields ~cmd "sweep" in
  let* sweep =
    match sweep_s with
    | None -> Ok (Faultkit.Campaign.Boundaries { stride = 1 })
    | Some s -> (
        match Faultkit.Campaign.sweep_of_string s with
        | Ok sw -> Ok sw
        | Error e -> bad "faults: %s" e)
  in
  let* seed = get_int fields ~cmd "seed" ~default:1 in
  Ok (Faults { app; runtime; sweep; seed })

let parse_fuzz fields =
  let cmd = "fuzz" in
  let* () =
    check_fields ~cmd
      ~allowed:
        (common @ [ "count"; "seed"; "budget"; "max_shrink"; "ablate_regions"; "ablate_semantics" ])
      fields
  in
  let d = Conformance.Fuzz.default_options in
  let* count = get_int fields ~cmd "count" ~default:d.Conformance.Fuzz.count in
  let* seed = get_int fields ~cmd "seed" ~default:d.Conformance.Fuzz.seed in
  let* budget = get_int fields ~cmd "budget" ~default:d.Conformance.Fuzz.budget in
  let* max_shrink = get_int fields ~cmd "max_shrink" ~default:d.Conformance.Fuzz.max_shrink in
  let* ablate_regions = get_bool fields ~cmd "ablate_regions" ~default:false in
  let* ablate_semantics = get_bool fields ~cmd "ablate_semantics" ~default:false in
  if count < 1 then bad "fuzz: count must be >= 1"
  else if budget < 1 then bad "fuzz: budget must be >= 1"
  else if max_shrink < 0 then bad "fuzz: max_shrink must be >= 0"
  else
    Ok
      (Fuzz
         {
           options =
             {
               Conformance.Fuzz.count;
               seed;
               (* the server shards across requests, not inside one *)
               jobs = 1;
               budget;
               max_shrink;
               ablate_regions;
               ablate_semantics;
               check_vm = true;
             };
         })

let parse_explore fields =
  let cmd = "explore" in
  let* () =
    check_fields ~cmd
      ~allowed:
        (common
        @ [
            "app"; "runtime"; "depth"; "max_states"; "prune"; "ablate_regions";
            "ablate_semantics"; "seed";
          ])
      fields
  in
  let* app = get_string fields ~cmd "app" in
  let* runtime_s = get_string_opt fields ~cmd "runtime" in
  let* runtime =
    match runtime_s with None -> Ok Apps.Common.Easeio | Some s -> variant_of_string s
  in
  let* depth = get_int fields ~cmd "depth" ~default:1 in
  let* max_states =
    match List.assoc_opt "max_states" fields with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int n) when n < 1 -> bad "explore: max_states must be >= 1"
    | Some (Json.Int n) -> Ok (Some n)
    | Some _ -> bad "explore: field \"max_states\" must be an integer"
  in
  let* prune = get_bool fields ~cmd "prune" ~default:true in
  let* ablate_regions = get_bool fields ~cmd "ablate_regions" ~default:false in
  let* ablate_semantics = get_bool fields ~cmd "ablate_semantics" ~default:false in
  let* seed = get_int fields ~cmd "seed" ~default:1 in
  if depth < 0 then bad "explore: depth must be >= 0"
  else Ok (Explore { app; runtime; depth; max_states; prune; ablate_regions; ablate_semantics; seed })

let parse json =
  match json with
  | Json.Obj fields -> (
      let* cmd = get_string fields ~cmd:"request" "cmd" in
      let* id =
        match List.assoc_opt "id" fields with
        | None -> Ok 0
        | Some (Json.Int n) -> Ok n
        | Some _ -> bad "request: field \"id\" must be an integer"
      in
      let job parse_fields =
        if id < 1 then bad "%s: job requests need a positive \"id\"" cmd
        else
          let* r = parse_fields fields in
          Ok (Job (id, r))
      in
      match cmd with
      | "run" -> job parse_run
      | "faults" -> job parse_faults
      | "fuzz" -> job parse_fuzz
      | "explore" -> job parse_explore
      | "cancel" -> (
          let* () = check_fields ~cmd:"cancel" ~allowed:(common @ [ "target" ]) fields in
          match List.assoc_opt "target" fields with
          | Some (Json.Int t) -> Ok (Control (Cancel t))
          | Some _ | None -> bad "cancel: missing integer field \"target\"")
      | "ping" ->
          let* () = check_fields ~cmd:"ping" ~allowed:common fields in
          Ok (Control Ping)
      | "stats" ->
          let* () = check_fields ~cmd:"stats" ~allowed:common fields in
          Ok (Control Stats)
      | "shutdown" ->
          let* () = check_fields ~cmd:"shutdown" ~allowed:common fields in
          Ok (Control Shutdown)
      | c -> bad "unknown command %S" c)
  | _ -> err "bad-frame" "payload is not a JSON object"

(* {1 Request payload builders (client side)}

   Built through [Trace.Json] so embedded program sources are escaped
   correctly; the server parses frames, so pretty-printed multi-line
   payloads are fine on the wire. *)

let to_payload obj = Json.to_string (Json.Obj obj)

(* The wire names are the CLI option slugs, not the display names
   ([Apps.Common.variant_name] renders "EaseIO/Op" etc. for tables). *)
let variant_slug = function
  | Apps.Common.Alpaca -> "alpaca"
  | Apps.Common.Ink -> "ink"
  | Apps.Common.Easeio -> "easeio"
  | Apps.Common.Easeio_op -> "easeio-op"

let policy_slug = function
  | Lang.Interp.Plain -> "plain"
  | Lang.Interp.Alpaca -> "alpaca"
  | Lang.Interp.Ink -> "ink"
  | Lang.Interp.Easeio -> "easeio"

let run_request ~id ?(runtime = Lang.Interp.Easeio) ?(failure = Platform.Failure.No_failures)
    ?(seed = 1) ~src () =
  to_payload
    [
      ("id", Json.Int id);
      ("cmd", Json.String "run");
      ("src", Json.String src);
      ("runtime", Json.String (policy_slug runtime));
      ("failure", Json.String (Platform.Failure.to_string failure));
      ("seed", Json.Int seed);
    ]

let faults_request ~id ?runtime ?(sweep = Faultkit.Campaign.Boundaries { stride = 1 }) ?(seed = 1)
    ~app () =
  to_payload
    ([ ("id", Json.Int id); ("cmd", Json.String "faults"); ("app", Json.String app) ]
    @ (match runtime with
      | None -> []
      | Some v -> [ ("runtime", Json.String (variant_slug v)) ])
    @ [
        ("sweep", Json.String (Faultkit.Campaign.sweep_to_string sweep));
        ("seed", Json.Int seed);
      ])

let fuzz_request ~id ?(options = Conformance.Fuzz.default_options) () =
  to_payload
    [
      ("id", Json.Int id);
      ("cmd", Json.String "fuzz");
      ("count", Json.Int options.Conformance.Fuzz.count);
      ("seed", Json.Int options.Conformance.Fuzz.seed);
      ("budget", Json.Int options.Conformance.Fuzz.budget);
      ("max_shrink", Json.Int options.Conformance.Fuzz.max_shrink);
      ("ablate_regions", Json.Bool options.Conformance.Fuzz.ablate_regions);
      ("ablate_semantics", Json.Bool options.Conformance.Fuzz.ablate_semantics);
    ]

let explore_request ~id ?(runtime = Apps.Common.Easeio) ?(depth = 1) ?max_states ?(prune = true)
    ?(seed = 1) ~app () =
  to_payload
    ([
       ("id", Json.Int id);
       ("cmd", Json.String "explore");
       ("app", Json.String app);
       ("runtime", Json.String (variant_slug runtime));
       ("depth", Json.Int depth);
     ]
    @ (match max_states with None -> [] | Some n -> [ ("max_states", Json.Int n) ])
    @ [ ("prune", Json.Bool prune); ("seed", Json.Int seed) ])

let cancel_request ~target = to_payload [ ("cmd", Json.String "cancel"); ("target", Json.Int target) ]
let ping_request = to_payload [ ("cmd", Json.String "ping") ]
let stats_request = to_payload [ ("cmd", Json.String "stats") ]
let shutdown_request = to_payload [ ("cmd", Json.String "shutdown") ]

(* {1 Cache keys}

   Content digests over everything a result document is a function of.
   Components are joined with NUL (none of the inputs contain NUL), a
   leading kind tag keeps the key spaces disjoint, and app names are
   the catalog's canonical [app_name] (resolved before keying), so a
   prefix alias and the full name share cache cells. *)

let digest_key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let run_key ~src ~policy ~failure ~seed =
  digest_key
    [
      "run";
      src;
      Lang.Interp.policy_name policy;
      Platform.Failure.to_string failure;
      string_of_int seed;
    ]

let cell_key ~app ~variant ~sweep ~seed =
  digest_key
    [
      "cell";
      app;
      Apps.Common.variant_name variant;
      Faultkit.Campaign.sweep_to_string sweep;
      string_of_int seed;
    ]

let fuzz_key (o : Conformance.Fuzz.options) =
  digest_key
    [
      "fuzz";
      string_of_int o.Conformance.Fuzz.count;
      string_of_int o.Conformance.Fuzz.seed;
      string_of_int o.Conformance.Fuzz.budget;
      string_of_int o.Conformance.Fuzz.max_shrink;
      string_of_bool o.Conformance.Fuzz.ablate_regions;
      string_of_bool o.Conformance.Fuzz.ablate_semantics;
      string_of_bool o.Conformance.Fuzz.check_vm;
    ]

let explore_key ~app ~runtime ~depth ~max_states ~prune ~ablate_regions ~ablate_semantics ~seed =
  digest_key
    [
      "explore";
      app;
      Apps.Common.variant_name runtime;
      string_of_int depth;
      (match max_states with None -> "-" | Some n -> string_of_int n);
      string_of_bool prune;
      string_of_bool ablate_regions;
      string_of_bool ablate_semantics;
      string_of_int seed;
    ]
