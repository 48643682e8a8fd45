(* {1 Chrome trace-event JSON (Perfetto / chrome://tracing)}

   One process (pid 0), four threads:
     tid 0 — task attempts as duration events (outcome in args)
     tid 1 — I/O re-execution decisions as instants
     tid 2 — peripheral activity (DMA, LEA, radio) as instants
     tid 3 — power: failure instants plus "off" duration events
   Capacitor level and the io:* execution counters are counter tracks
   ("ph": "C"). Timestamps are already µs, Chrome's native unit. *)

let thread_meta tid name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let instant ~ts ~tid ~name ~cat args =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String cat);
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Int ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let duration ~ts ~dur ~tid ~name ~cat args =
  Json.Obj
    [
      ("name", Json.String name);
      ("cat", Json.String cat);
      ("ph", Json.String "X");
      ("ts", Json.Int ts);
      ("dur", Json.Int dur);
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let counter ~ts ~name value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "C");
      ("ts", Json.Int ts);
      ("pid", Json.Int 0);
      ("args", Json.Obj [ ("value", value) ]);
    ]

let chrome events =
  let out = ref [] in
  let push e = out := e :: !out in
  List.iter push
    [
      thread_meta 0 "tasks";
      thread_meta 1 "io decisions";
      thread_meta 2 "peripherals";
      thread_meta 3 "power";
    ];
  (* pending task attempt: (ts, task, attempt) *)
  let pending = ref None in
  (* ts of the last power failure, to draw the off interval up to the
     following boot *)
  let last_failure = ref None in
  let attempt_end ~ts ~outcome task attempt app_us ovh_us =
    let start_ts = match !pending with Some (ts0, _, _) -> ts0 | None -> ts in
    pending := None;
    push
      (duration ~ts:start_ts ~dur:(ts - start_ts) ~tid:0 ~name:task ~cat:"task"
         [
           ("attempt", Json.Int attempt);
           ("outcome", Json.String outcome);
           ("app_us", Json.Int app_us);
           ("overhead_us", Json.Int ovh_us);
         ])
  in
  List.iter
    (fun (e : Event.t) ->
      let ts = e.ts_us in
      match e.payload with
      | Event.Boot { index } ->
          (match !last_failure with
          | Some fts when index > 1 ->
              push
                (duration ~ts:fts ~dur:(ts - fts) ~tid:3 ~name:"off" ~cat:"power"
                   [ ("boot", Json.Int index) ])
          | _ -> ());
          last_failure := None;
          push (instant ~ts ~tid:3 ~name:"boot" ~cat:"power" [ ("index", Json.Int index) ])
      | Event.Power_failure { index; cap_nj } ->
          last_failure := Some ts;
          push
            (Json.Obj
               [
                 ("name", Json.String "power_failure");
                 ("cat", Json.String "power");
                 ("ph", Json.String "i");
                 ("s", Json.String "g");
                 ("ts", Json.Int ts);
                 ("pid", Json.Int 0);
                 ("tid", Json.Int 3);
                 ( "args",
                   Json.Obj [ ("index", Json.Int index); ("cap_nj", Json.Float cap_nj) ] );
               ])
      | Event.Cap_level { nj } -> push (counter ~ts ~name:"capacitor_nj" (Json.Float nj))
      | Event.Task_start { task; attempt } -> pending := Some (ts, task, attempt)
      | Event.Task_commit { task; attempt; app_us; ovh_us; _ } ->
          attempt_end ~ts ~outcome:"commit" task attempt app_us ovh_us
      | Event.Task_abort { task; attempt; app_us; ovh_us; _ } ->
          attempt_end ~ts ~outcome:"abort" task attempt app_us ovh_us
      | Event.Io { site; kind; sem; decision; reason } ->
          push
            (instant ~ts ~tid:1
               ~name:(Event.decision_name decision ^ " " ^ site)
               ~cat:"io"
               [
                 ("site", Json.String site);
                 ("kind", Json.String kind);
                 ("sem", Json.String (Event.sem_name sem));
                 ("decision", Json.String (Event.decision_name decision));
                 ("reason", Json.String reason);
               ])
      | Event.Privatize { runtime; task; words } ->
          push
            (instant ~ts ~tid:2 ~name:"privatize" ~cat:"runtime"
               [
                 ("runtime", Json.String runtime);
                 ("task", Json.String task);
                 ("words", Json.Int words);
               ])
      | Event.Commit { runtime; task; words } ->
          push
            (instant ~ts ~tid:2 ~name:"commit" ~cat:"runtime"
               [
                 ("runtime", Json.String runtime);
                 ("task", Json.String task);
                 ("words", Json.Int words);
               ])
      | Event.Region_priv { region; words; restored } ->
          push
            (instant ~ts ~tid:2
               ~name:(if restored then "region restore" else "region snapshot")
               ~cat:"runtime"
               [ ("region", Json.String region); ("words", Json.Int words) ])
      | Event.Dma { src; dst; words } ->
          push
            (instant ~ts ~tid:2 ~name:"DMA" ~cat:"periph"
               [
                 ("src", Json.String (Event.mem_name src));
                 ("dst", Json.String (Event.mem_name dst));
                 ("words", Json.Int words);
               ])
      | Event.Lea { op; elements } ->
          push
            (instant ~ts ~tid:2 ~name:("LEA " ^ op) ~cat:"periph"
               [ ("elements", Json.Int elements) ])
      | Event.Radio_send { words } ->
          push (instant ~ts ~tid:2 ~name:"radio send" ~cat:"periph" [ ("words", Json.Int words) ])
      | Event.Count { name; count } -> push (counter ~ts ~name (Json.Int count)))
    events;
  (match !pending with
  | Some (ts0, task, attempt) ->
      (* run ended mid-attempt (gave up): close the span with zero length *)
      push
        (duration ~ts:ts0 ~dur:0 ~tid:0 ~name:task ~cat:"task"
           [ ("attempt", Json.Int attempt); ("outcome", Json.String "unfinished") ])
  | None -> ());
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !out)); ("displayTimeUnit", Json.String "ms") ]

(* {1 Plain-text timeline} *)

let text events =
  let buf = Buffer.create 4096 in
  let line ts fmt =
    Buffer.add_string buf (Printf.sprintf "[%10dus] " ts);
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  List.iter
    (fun (e : Event.t) ->
      let ts = e.ts_us in
      match e.payload with
      | Event.Boot { index } -> line ts "boot #%d" index
      | Event.Power_failure { index; cap_nj } ->
          line ts "POWER FAILURE #%d (capacitor %.0f nJ)" index cap_nj
      | Event.Cap_level { nj } -> line ts "capacitor %.0f nJ" nj
      | Event.Task_start { task; attempt } -> line ts "task %s attempt %d" task attempt
      | Event.Task_commit { task; attempt; app_us; ovh_us; _ } ->
          line ts "task %s attempt %d COMMIT (app %dus, overhead %dus)" task attempt app_us
            ovh_us
      | Event.Task_abort { task; attempt; app_us; ovh_us; _ } ->
          line ts "task %s attempt %d ABORT (wasted %dus)" task attempt (app_us + ovh_us)
      | Event.Io { site; kind; sem; decision; reason } ->
          line ts "io %-6s %s %s [%s, %s]" (Event.decision_name decision) site reason
            (Event.sem_name sem) kind
      | Event.Privatize { runtime; task; words } ->
          line ts "%s privatize %d words (task %s)" runtime words task
      | Event.Commit { runtime; task; words } ->
          line ts "%s commit %d words (task %s)" runtime words task
      | Event.Region_priv { region; words; restored } ->
          line ts "region %s %s (%d words)" region
            (if restored then "restore" else "snapshot")
            words
      | Event.Dma { src; dst; words } ->
          line ts "DMA %s -> %s, %d words" (Event.mem_name src) (Event.mem_name dst) words
      | Event.Lea { op; elements } -> line ts "LEA %s, %d elements" op elements
      | Event.Radio_send { words } -> line ts "radio send, %d words" words
      | Event.Count { name; count } -> line ts "count %s = %d" name count)
    events;
  Buffer.contents buf
