(* Attribution: where a run's or a whole sweep's time, energy and
   redundant I/O went, per task and per I/O site. A collector is a
   fold over [Trace.Event] streams — attach [sink] to each run and the
   events are aggregated in place, so a 10^4-run campaign never holds
   more than one run's worth of events.

   Energy is a float, and float addition is not associative — so
   unlike [Snapshot], profiles must only ever be merged in a fixed
   fold order (campaigns fold per-case profiles in schedule order,
   then per-cell profiles in sweep order). The integer µs fields are
   what [reconcile] checks exactly. *)

type task = {
  task : string;
  commits : int;
  aborts : int;
  app_us : int;
  ovh_us : int;
  wasted_us : int;
  app_nj : float;
  ovh_nj : float;
  wasted_nj : float;
}

type site = { site : string; kind : string; sem : string; execs : int; replays : int; skips : int }

type profile = {
  tasks : task list;  (* sorted by task name *)
  sites : site list;  (* sorted by site name *)
  boots : int;
  power_failures : int;
  runs : int;
  phases : (string * int) list;
      (* sorted by phase name; driver-level µs buckets (e.g. the
         explorer's own bookkeeping vs simulated time) — flamegraph
         frames only, excluded from [reconcile] which checks simulated
         machine time *)
}

let empty = { tasks = []; sites = []; boots = 0; power_failures = 0; runs = 0; phases = [] }

(* {1 Collector} *)

type task_row = {
  mutable r_commits : int;
  mutable r_aborts : int;
  mutable r_app_us : int;
  mutable r_ovh_us : int;
  mutable r_wasted_us : int;
  mutable r_app_nj : float;
  mutable r_ovh_nj : float;
  mutable r_wasted_nj : float;
}

type site_row = {
  s_kind : string;
  s_sem : string;
  mutable s_execs : int;
  mutable s_replays : int;
  mutable s_skips : int;
}

type t = {
  task_rows : (string, task_row) Hashtbl.t;
  site_rows : (string, site_row) Hashtbl.t;
  phase_rows : (string, int ref) Hashtbl.t;
  mutable c_boots : int;
  mutable c_pf : int;
  mutable c_runs : int;
}

let create () =
  {
    task_rows = Hashtbl.create 16;
    site_rows = Hashtbl.create 32;
    phase_rows = Hashtbl.create 4;
    c_boots = 0;
    c_pf = 0;
    c_runs = 0;
  }

let task_row t name =
  match Hashtbl.find_opt t.task_rows name with
  | Some r -> r
  | None ->
      let r =
        {
          r_commits = 0;
          r_aborts = 0;
          r_app_us = 0;
          r_ovh_us = 0;
          r_wasted_us = 0;
          r_app_nj = 0.;
          r_ovh_nj = 0.;
          r_wasted_nj = 0.;
        }
      in
      Hashtbl.replace t.task_rows name r;
      r

let sink t (e : Trace.Event.t) =
  match e.payload with
  | Trace.Event.Boot _ -> t.c_boots <- t.c_boots + 1
  | Trace.Event.Power_failure _ -> t.c_pf <- t.c_pf + 1
  | Trace.Event.Task_commit { task; app_us; ovh_us; app_nj; ovh_nj; _ } ->
      let r = task_row t task in
      r.r_commits <- r.r_commits + 1;
      r.r_app_us <- r.r_app_us + app_us;
      r.r_ovh_us <- r.r_ovh_us + ovh_us;
      r.r_app_nj <- r.r_app_nj +. app_nj;
      r.r_ovh_nj <- r.r_ovh_nj +. ovh_nj
  | Trace.Event.Task_abort { task; app_us; ovh_us; app_nj; ovh_nj; _ } ->
      let r = task_row t task in
      r.r_aborts <- r.r_aborts + 1;
      r.r_wasted_us <- r.r_wasted_us + app_us + ovh_us;
      r.r_wasted_nj <- r.r_wasted_nj +. app_nj +. ovh_nj
  | Trace.Event.Io { site; kind; sem; decision; _ } ->
      let s =
        match Hashtbl.find_opt t.site_rows site with
        | Some s -> s
        | None ->
            let s =
              {
                s_kind = kind;
                s_sem = Trace.Event.sem_name sem;
                s_execs = 0;
                s_replays = 0;
                s_skips = 0;
              }
            in
            Hashtbl.replace t.site_rows site s;
            s
      in
      (match decision with
      | Trace.Event.Exec -> s.s_execs <- s.s_execs + 1
      | Trace.Event.Replay -> s.s_replays <- s.s_replays + 1
      | Trace.Event.Skip -> s.s_skips <- s.s_skips + 1)
  | _ -> ()

let add_run t = t.c_runs <- t.c_runs + 1

let add_phase t name us =
  match Hashtbl.find_opt t.phase_rows name with
  | Some r -> r := !r + us
  | None -> Hashtbl.replace t.phase_rows name (ref us)

let profile t =
  {
    tasks =
      List.sort
        (fun a b -> compare a.task b.task)
        (Hashtbl.fold
           (fun name r acc ->
             {
               task = name;
               commits = r.r_commits;
               aborts = r.r_aborts;
               app_us = r.r_app_us;
               ovh_us = r.r_ovh_us;
               wasted_us = r.r_wasted_us;
               app_nj = r.r_app_nj;
               ovh_nj = r.r_ovh_nj;
               wasted_nj = r.r_wasted_nj;
             }
             :: acc)
           t.task_rows []);
    sites =
      List.sort
        (fun a b -> compare a.site b.site)
        (Hashtbl.fold
           (fun name s acc ->
             {
               site = name;
               kind = s.s_kind;
               sem = s.s_sem;
               execs = s.s_execs;
               replays = s.s_replays;
               skips = s.s_skips;
             }
             :: acc)
           t.site_rows []);
    boots = t.c_boots;
    power_failures = t.c_pf;
    runs = t.c_runs;
    phases =
      List.sort compare (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.phase_rows []);
  }

(* {1 Profiles} *)

(* Merge preserves name-sorted order. NOT order-insensitive for the nj
   floats — callers must fold shards in a fixed order (Pool.fold hands
   results to its fold in index order precisely so this is easy). *)
let merge a b =
  let rec tasks xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | (x : task) :: xs', (y : task) :: ys' ->
        let c = compare x.task y.task in
        if c < 0 then x :: tasks xs' ys
        else if c > 0 then y :: tasks xs ys'
        else
          {
            task = x.task;
            commits = x.commits + y.commits;
            aborts = x.aborts + y.aborts;
            app_us = x.app_us + y.app_us;
            ovh_us = x.ovh_us + y.ovh_us;
            wasted_us = x.wasted_us + y.wasted_us;
            app_nj = x.app_nj +. y.app_nj;
            ovh_nj = x.ovh_nj +. y.ovh_nj;
            wasted_nj = x.wasted_nj +. y.wasted_nj;
          }
          :: tasks xs' ys'
  in
  let rec sites xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | (x : site) :: xs', (y : site) :: ys' ->
        let c = compare x.site y.site in
        if c < 0 then x :: sites xs' ys
        else if c > 0 then y :: sites xs ys'
        else
          {
            site = x.site;
            kind = x.kind;
            sem = x.sem;
            execs = x.execs + y.execs;
            replays = x.replays + y.replays;
            skips = x.skips + y.skips;
          }
          :: sites xs' ys'
  in
  let rec phases xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | ((xn, xv) as x) :: xs', ((yn, yv) as y) :: ys' ->
        let c = compare xn yn in
        if c < 0 then x :: phases xs' ys
        else if c > 0 then y :: phases xs ys'
        else (xn, xv + yv) :: phases xs' ys'
  in
  {
    tasks = tasks a.tasks b.tasks;
    sites = sites a.sites b.sites;
    boots = a.boots + b.boots;
    power_failures = a.power_failures + b.power_failures;
    runs = a.runs + b.runs;
    phases = phases a.phases b.phases;
  }

let total_app_us p = List.fold_left (fun acc (t : task) -> acc + t.app_us) 0 p.tasks
let total_ovh_us p = List.fold_left (fun acc (t : task) -> acc + t.ovh_us) 0 p.tasks
let total_wasted_us p = List.fold_left (fun acc (t : task) -> acc + t.wasted_us) 0 p.tasks
let total_commits p = List.fold_left (fun acc (t : task) -> acc + t.commits) 0 p.tasks
let total_attempts p = List.fold_left (fun acc (t : task) -> acc + t.commits + t.aborts) 0 p.tasks

let reconcile p ~app_us ~ovh_us ~wasted_us ~commits ~attempts =
  let check name expected got =
    if expected = got then Ok ()
    else Error (Printf.sprintf "%s: metrics say %d, profile says %d" name expected got)
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = check "useful app us" app_us (total_app_us p) in
  let* () = check "useful overhead us" ovh_us (total_ovh_us p) in
  let* () = check "wasted us" wasted_us (total_wasted_us p) in
  let* () = check "commits" commits (total_commits p) in
  check "attempts" attempts (total_attempts p)

(* {1 Exports} *)

(* Folded-stack format for flamegraph.pl / speedscope: one line per
   stack, semicolon-separated frames, space, integer weight. We use µs
   as the weight so frame totals reconcile exactly with the summed
   Kernel.Metrics — the same invariant [reconcile] checks. *)
let to_folded ?(prefix = "campaign") p =
  let buf = Buffer.create 1024 in
  let line frames v =
    if v > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" (String.concat ";" frames) v)
  in
  List.iter
    (fun (t : task) ->
      line [ prefix; t.task; "app" ] t.app_us;
      line [ prefix; t.task; "overhead" ] t.ovh_us;
      line [ prefix; t.task; "wasted" ] t.wasted_us)
    p.tasks;
  List.iter (fun (name, us) -> line [ prefix; "phase"; name ] us) p.phases;
  Buffer.contents buf

(* Perfetto counter tracks over a sweep: the timestamp axis is the
   LOGICAL cell index, never wall time — wall time depends on --jobs
   and host load, cell index does not, so the export stays
   byte-identical across worker counts. *)
let perfetto_counters series =
  let out = ref [] in
  List.iter
    (fun (name, values) ->
      Array.iteri
        (fun i v ->
          out :=
            Trace.Json.Obj
              [
                ("name", Trace.Json.String name);
                ("ph", Trace.Json.String "C");
                ("ts", Trace.Json.Int i);
                ("pid", Trace.Json.Int 0);
                ("args", Trace.Json.Obj [ ("value", Trace.Json.Int v) ]);
              ]
            :: !out)
        values)
    series;
  Trace.Json.Obj
    [
      ("traceEvents", Trace.Json.List (List.rev !out));
      ("displayTimeUnit", Trace.Json.String "ms");
    ]

let task_json (t : task) =
  Trace.Json.Obj
    [
      ("task", Trace.Json.String t.task);
      ("commits", Trace.Json.Int t.commits);
      ("aborts", Trace.Json.Int t.aborts);
      ("app_us", Trace.Json.Int t.app_us);
      ("overhead_us", Trace.Json.Int t.ovh_us);
      ("wasted_us", Trace.Json.Int t.wasted_us);
      ("app_nj", Trace.Json.Float t.app_nj);
      ("overhead_nj", Trace.Json.Float t.ovh_nj);
      ("wasted_nj", Trace.Json.Float t.wasted_nj);
    ]

let site_json (s : site) =
  Trace.Json.Obj
    [
      ("site", Trace.Json.String s.site);
      ("kind", Trace.Json.String s.kind);
      ("sem", Trace.Json.String s.sem);
      ("exec", Trace.Json.Int s.execs);
      ("replay", Trace.Json.Int s.replays);
      ("skip", Trace.Json.Int s.skips);
    ]

let to_json p =
  Trace.Json.Obj
    [
      ("runs", Trace.Json.Int p.runs);
      ("boots", Trace.Json.Int p.boots);
      ("power_failures", Trace.Json.Int p.power_failures);
      ("app_us", Trace.Json.Int (total_app_us p));
      ("overhead_us", Trace.Json.Int (total_ovh_us p));
      ("wasted_us", Trace.Json.Int (total_wasted_us p));
      ("commits", Trace.Json.Int (total_commits p));
      ("attempts", Trace.Json.Int (total_attempts p));
      ("tasks", Trace.Json.List (List.map task_json p.tasks));
      ("io_sites", Trace.Json.List (List.map site_json p.sites));
      ( "phases",
        Trace.Json.Obj (List.map (fun (name, us) -> (name, Trace.Json.Int us)) p.phases) );
    ]
