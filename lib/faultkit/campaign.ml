open Platform

type sweep = Boundaries of { stride : int } | Random of { cases : int }

let sweep_to_string = function
  | Boundaries { stride = 1 } -> "boundaries"
  | Boundaries { stride } -> Printf.sprintf "boundaries:%d" stride
  | Random { cases } -> Printf.sprintf "random:%d" cases

let sweep_of_string s =
  match s with
  | "boundaries" -> Ok (Boundaries { stride = 1 })
  | _ -> (
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "unknown sweep %S (try boundaries[:STRIDE]|random:N)" s)
      | Some i -> (
          let kind = String.sub s 0 i in
          let arg = String.sub s (i + 1) (String.length s - i - 1) in
          match (kind, int_of_string_opt arg) with
          | "boundaries", Some stride when stride >= 1 -> Ok (Boundaries { stride })
          | "random", Some cases when cases >= 1 -> Ok (Random { cases })
          | ("boundaries" | "random"), _ ->
              Error (Printf.sprintf "sweep %s: expected a positive integer, got %S" kind arg)
          | _, _ -> Error (Printf.sprintf "unknown sweep kind %S" kind)))

type violation =
  | Livelock of string
  | App_incorrect
  | Nv_mismatch of Oracle.mismatch list
  | Always_skipped of string list

type case = { schedule : Failure.spec; pf : int; violations : violation list }
type failed_run = { first : case; count : int; step : int }

(* The [i]-th case of a run: [first]'s verdict, [i] steps on. *)
let nth_case r i =
  match r.first.schedule with
  | Failure.Nth_charge k when i > 0 ->
      { r.first with schedule = Failure.Nth_charge (k + (i * r.step)) }
  | _ -> r.first

let failed_cases ?(limit = max_int) runs =
  List.to_seq runs
  |> Seq.concat_map (fun r -> Seq.init r.count (nth_case r))
  |> Seq.take limit |> List.of_seq

(* Summed Kernel.Metrics across a set of runs — the exact-integer side
   of the attribution reconciliation (Obs.Attr.reconcile). *)
type totals = { app_us : int; ovh_us : int; wasted_us : int; commits : int; attempts : int }

let zero_totals = { app_us = 0; ovh_us = 0; wasted_us = 0; commits = 0; attempts = 0 }

let add_totals a b =
  {
    app_us = a.app_us + b.app_us;
    ovh_us = a.ovh_us + b.ovh_us;
    wasted_us = a.wasted_us + b.wasted_us;
    commits = a.commits + b.commits;
    attempts = a.attempts + b.attempts;
  }

type cell = {
  variant : Apps.Common.variant;
  boundaries : int;
  cases : int;
  boundaries_run : int;
  strided : bool;
  failed : failed_run list;
  failed_count : int;
  snap : Obs.Snapshot.t;
  cell_profile : Obs.Attr.profile;
  cell_totals : totals;
}

(* Exact boundary coverage of a sweep: how many of the [boundaries]
   charge points were actually run as [Nth_charge] cases. Random sweeps
   cover none (their schedules are time-driven). *)
let coverage ~sweep ~cases =
  match sweep with
  | Boundaries { stride } -> (cases, stride > 1)
  | Random _ -> (0, false)

type report = { app : string; sweep : sweep; seed : int; cells : cell list }

let check_golden (spec : Apps.Common.spec) variant ~gave_up ~correct =
  if gave_up || correct = Some false then
    failwith
      (Printf.sprintf "Campaign: golden (no-failure) run of %s under %s is not correct" spec.app_name
         (Apps.Common.variant_name variant))

let golden_of (spec : Apps.Common.spec) variant ~seed =
  let captured = ref None in
  let run =
    spec.run
      ~probe:(fun m -> captured := Some (Oracle.capture m))
      variant ~failure:Failure.No_failures ~seed
  in
  let g =
    match !captured with
    | Some g -> g
    | None -> failwith "Campaign: app runner ignored the probe hook"
  in
  check_golden spec variant ~gave_up:run.Expkit.Run.gave_up ~correct:run.Expkit.Run.correct;
  g

(* Random schedules are derived from (campaign seed, case index) only,
   so a campaign is reproducible and independent of evaluation order.
   On-times stay in the paper's ballpark: long enough that every
   benchmark makes forward progress, short enough to exercise plenty of
   reboot paths. *)
let random_schedule ~seed ~golden i =
  let rng = Rng.create (Rng.hash2 seed (i + 1)) in
  if i mod 2 = 0 then begin
    let k = 1 + Rng.int rng 3 in
    let horizon = max 2 golden.Oracle.total_us in
    let ts = List.init k (fun _ -> 1 + Rng.int rng horizon) in
    Failure.At_times (List.sort_uniq compare ts)
  end
  else begin
    let on_min_us = Rng.int_in rng 5_000 12_000 in
    let on_max_us = on_min_us + Rng.int_in rng 1_000 8_000 in
    let off_min_us = Rng.int_in rng 1_000 5_000 in
    let off_max_us = off_min_us + Rng.int_in rng 1_000 10_000 in
    Failure.Timer { on_min_us; on_max_us; off_min_us; off_max_us }
  end

let schedules ~sweep ~seed ~golden =
  match sweep with
  | Boundaries { stride } ->
      if stride < 1 then invalid_arg "Campaign: stride must be >= 1";
      let rec go k acc =
        if k > golden.Oracle.charges then List.rev acc
        else go (k + stride) (Failure.Nth_charge k :: acc)
      in
      go 1 []
  | Random { cases } ->
      if cases < 1 then invalid_arg "Campaign: random case count must be >= 1";
      List.init cases (random_schedule ~seed ~golden)

let verdict ~gave_up ~stuck_task ~correct ~diff ~skipped =
  if gave_up then
    (* the final state was never reached: the NV diff is meaningless,
       the livelock itself is the violation *)
    [ Livelock (Option.value ~default:"(unknown)" stuck_task) ]
  else
    (if correct = Some false then [ App_incorrect ] else [])
    @ (match diff with [] -> [] | ms -> [ Nv_mismatch ms ])
    @ match skipped with [] -> [] | ss -> [ Always_skipped ss ]

(* A case is one full app run plus its observability harvest. Each
   case gets a fresh sheet and attribution collector (never shared
   across domains); the fold back into the cell happens in schedule
   order, so everything downstream is jobs-invariant. Campaigns meter
   unconditionally and every case carries a trace sink for the Always
   oracle; the VM batches its blocks under both (see [Vm.blockify]). *)
let run_case (spec : Apps.Common.spec) variant ~golden ~seed schedule =
  let watch, skips = Oracle.always_skip_watch () in
  let attr = Obs.Attr.create () in
  let attr_sink = Obs.Attr.sink attr in
  let sink e =
    watch e;
    attr_sink e
  in
  let sheet = Obs.Sheet.create () in
  let diff = ref [] in
  let events = ref [] in
  let probe m =
    diff := Oracle.nv_diff ~extra_volatile:spec.nv_volatile ~golden m;
    events := Machine.events m
  in
  let one = spec.run ~sink ~meter:sheet ~probe variant ~failure:schedule ~seed in
  Obs.Attr.add_run attr;
  let violations =
    verdict ~gave_up:one.Expkit.Run.gave_up ~stuck_task:one.Expkit.Run.stuck_task
      ~correct:one.Expkit.Run.correct ~diff:!diff ~skipped:(skips ())
  in
  ( { schedule; pf = one.Expkit.Run.pf; violations },
    Obs.Snapshot.of_sheet ~events:!events sheet,
    Obs.Attr.profile attr,
    {
      app_us = one.Expkit.Run.app_us;
      ovh_us = one.Expkit.Run.ovh_us;
      wasted_us = one.Expkit.Run.wasted_us;
      commits = one.Expkit.Run.commits;
      attempts = one.Expkit.Run.attempts;
    } )

(* A cell is built by folding each case's verdict, snapshot, profile
   and totals into it in schedule order, as {!Expkit.Pool.fold} hands
   them over; the from-power-on and prefix-resume paths fold the same
   results in the same order, so the two produce bit-identical cells.
   Neighbouring boundaries fail alike: a failed case that is the next
   boundary of the sweep after the last failed run's end ([step]
   charges on, so no case passed in between) and equals its verdict and
   power-failure count lengthens that run, so a cell holds one record
   per run of equal failures, not one per case. *)
let add_case ~step cell (c, snap, profile, totals) =
  let failed =
    match (c.violations, cell.failed) with
    | [], _ -> cell.failed
    | vs, r :: rest
      when step > 0 && c.pf = r.first.pf && vs = r.first.violations
           && c.schedule = (nth_case r r.count).schedule ->
        { r with count = r.count + 1 } :: rest
    | _ -> { first = c; count = 1; step } :: cell.failed
  in
  {
    cell with
    cases = cell.cases + 1;
    failed;
    failed_count = (if c.violations = [] then cell.failed_count else cell.failed_count + 1);
    snap = Obs.Snapshot.merge cell.snap snap;
    cell_profile = Obs.Attr.merge cell.cell_profile profile;
    cell_totals = add_totals cell.cell_totals totals;
  }

(* Fan [n] cases out over the domain pool and fold them into a cell. *)
let fold_cases ?jobs ?progress ~init ~sweep ~golden variant n case =
  Option.iter (fun p -> Obs.Progress.add_total p n) progress;
  let tick = Option.map (fun p () -> Obs.Progress.tick p) progress in
  let empty =
    {
      variant;
      boundaries = golden.Oracle.charges;
      cases = 0;
      boundaries_run = 0;
      strided = false;
      failed = [];
      failed_count = 0;
      snap = Obs.Snapshot.zero;
      cell_profile = Obs.Attr.empty;
      cell_totals = zero_totals;
    }
  in
  let step = match sweep with Boundaries { stride } -> stride | Random _ -> 0 in
  let cell = Expkit.Pool.fold ?jobs ?tick ~init n case (add_case ~step) empty in
  let boundaries_run, strided = coverage ~sweep ~cases:cell.cases in
  { cell with failed = List.rev cell.failed; boundaries_run; strided }

let totals_of (mt : Kernel.Metrics.t) =
  {
    app_us = mt.Kernel.Metrics.useful_app_us;
    ovh_us = mt.Kernel.Metrics.useful_ovh_us;
    wasted_us = mt.Kernel.Metrics.wasted_us;
    commits = mt.Kernel.Metrics.commits;
    attempts = mt.Kernel.Metrics.attempts;
  }

let sub_totals a b =
  {
    app_us = a.app_us - b.app_us;
    ovh_us = a.ovh_us - b.ovh_us;
    wasted_us = a.wasted_us - b.wasted_us;
    commits = a.commits - b.commits;
    attempts = a.attempts - b.attempts;
  }

(* [after] minus [before], over two name-sorted event-count lists whose
   counts only grow; zero rows dropped. *)
let rec count_delta after before =
  match (after, before) with
  | r, [] -> r
  | [], _ -> []
  | (a, x) :: after', (b, y) :: before' ->
      let c = compare a b in
      if c < 0 then (a, x) :: count_delta after' before
      else if c > 0 then count_delta after before'
      else if x = y then count_delta after' before'
      else (a, x - y) :: count_delta after' before'

(* What a run adds to its case from a post-reboot state on, and the
   verdict inputs of its final state. [events] are the kinds a case's
   observers read ({!Obs.Attr.sink} and the Always watch), in order. *)
type tail = {
  events : Trace.Event.t list;
  delta : Obs.Snapshot.t;  (* metrics and event counts added *)
  added : totals;  (* Kernel.Metrics added *)
  pf_added : int;
  gave_up : bool;
  stuck_task : string option;
  correct : bool option;
  diff : Oracle.mismatch list;
}

(* The tail of a run that ends where it stands. *)
let final_tail (o : Kernel.Engine.outcome) ~diff =
  {
    events = [];
    delta = Obs.Snapshot.zero;
    added = zero_totals;
    pf_added = 0;
    gave_up = o.Kernel.Engine.gave_up;
    stuck_task = o.Kernel.Engine.stuck_task;
    correct = o.Kernel.Engine.correct;
    diff;
  }

(* Prefix-sharing boundary sweep. Apps with a [session] runner expose
   raw engine inputs, so an exhaustive [Nth_charge] sweep need not
   replay the whole prefix from power on once per boundary: a
   continuous pacer run paces a checkpoint walk ({!Kernel.Walker}, taped
   so each case's fresh Always watch, attribution collector and sheet
   see exactly the from-power-on prefix), each case is failed at its
   boundary from a capture the walker took there (one forward pass of
   an attempt captures a batch of its boundaries), and only the run
   after the reboot remains. Every harvested artifact — violations,
   metric snapshot, profile, totals — is byte-identical to the
   from-power-on path (the equivalence test holds the two against each
   other). The engine charges nothing before its first attempt top, so
   every boundary has a checkpoint before it.

   Most cases then reboot into a state an earlier case of the cell
   already reached, and the rest of the run is the same again. Each
   pacer keeps those continuations in a {!Seen} table, and a case whose
   state is stored replays the stored tail into its observers instead
   of simulating it. From a post-reboot state the continuation is a
   function of that state alone, except through the clock, which
   reaches simulated values only through {!Machine.clock}; a
   continuation that read it is simulated every time and never stored.
   Everything else the state leaves out — the clock, energy accounts,
   charge and event counts, the engine's metrics and attempt numbers —
   either accumulates into what the tail records as a delta or only
   stamps events, and no case observer reads those stamps. Every case
   of a cell reboots once after one failure, and every packet it holds
   went out in the shared no-failure prefix, so boot and failure counts
   and packet timestamps are the same in all of them.

   The resumable cases fan out over [Expkit.Pool.fold]. All cases
   resumed from one pacer share its arena, so each domain that takes a
   chunk runs its own pacer (a deterministic rerun of the same
   no-failure run, so its checkpoints are the same), except the calling
   domain, which reuses the one that captured the golden image — at
   [jobs = 1] that is the only pacer. Pool hands each domain its chunks
   in ascending order, which is the order a walker places boundaries
   in, and folds results by index, so the fold is in schedule order for
   any [jobs]. A pacer's stored continuations go with it when the cell
   is done. *)
let run_cell_resumed ?jobs ?progress ~sweep ~seed (spec : Apps.Common.spec) mk_session variant =
  (* one pacer run: its outcome and machine, and the case runner
     resuming from its checkpoints *)
  let pacer () =
    let session = mk_session ?ablate_regions:None ?ablate_semantics:None variant ~seed in
    let m = session.Apps.Common.ses_machine in
    let tape, record = Kernel.Walker.tape () in
    Machine.set_sink m record;
    Machine.set_meter m (Obs.Sheet.create ());
    session.Apps.Common.ses_begin ();
    let engine =
      Kernel.Engine.start ~hooks:session.Apps.Common.ses_hooks
        ?cur_slot:session.Apps.Common.ses_cur_slot m session.Apps.Common.ses_app
    in
    let o0, walk = Kernel.Walker.pace ~tape ~save:session.Apps.Common.ses_save engine in
    let nv_diff golden = Oracle.nv_diff ~extra_volatile:spec.nv_volatile ~golden m in
    let stored = Seen.create () in
    (* The rest of the run from the post-reboot state the engine stands
       at, its observed events fed to [sink] and its metrics to
       [sheet], the case's: a stored tail, or a simulated run's verdict
       with nothing left to add. A simulated continuation is stored,
       with its deltas, when it read no clock. *)
    let continue ~golden ~sheet sink =
      match Seen.find stored engine session.Apps.Common.ses_radio with
      | Seen.Hit tail ->
          List.iter sink tail.events;
          tail
      | Seen.Miss miss ->
          let sheet0 = Obs.Sheet.copy sheet
          and counts0 = Machine.events m
          and totals0 = totals_of (Kernel.Engine.metrics engine)
          and pf0 = Machine.failures m
          and reads0 = Machine.clock_reads m in
          let events = ref [] in
          Machine.set_sink m (fun e ->
              sink e;
              if Kernel.Walker.observed e then events := e :: !events);
          let o = Kernel.Engine.drive engine in
          session.Apps.Common.ses_finish ();
          let tail = final_tail o ~diff:(nv_diff golden) in
          if Machine.clock_reads m = reads0 then
            Seen.add stored miss
              {
                tail with
                events = List.rev !events;
                delta =
                  Obs.Snapshot.of_sheet
                    ~events:(count_delta (Machine.events m) counts0)
                    (Obs.Sheet.diff sheet sheet0);
                added = sub_totals (totals_of o.Kernel.Engine.metrics) totals0;
                pf_added = o.Kernel.Engine.power_failures - pf0;
              };
          tail
    in
    let resumed_case ~golden k =
      let watch, skips = Oracle.always_skip_watch () in
      let attr = Obs.Attr.create () in
      let attr_sink = Obs.Attr.sink attr in
      let sink e =
        watch e;
        attr_sink e
      in
      let step = Kernel.Walker.fail ~sink walk k in
      let sheet = Option.get (Machine.meter m) in
      (* the case's sheet, counts and totals as they stand, and what
         follows *)
      let standing tail =
        ( ( Obs.Snapshot.of_sheet ~events:(Machine.events m) sheet,
            totals_of (Kernel.Engine.metrics engine),
            Machine.failures m ),
          tail )
      in
      let (snap, totals, pf), tail =
        match step with
        | Kernel.Engine.Paused ->
            Kernel.Engine.resume engine;
            (* flush the prefix's dispatch counts, so the continuation's
               count from zero *)
            session.Apps.Common.ses_finish ();
            session.Apps.Common.ses_begin ();
            standing (continue ~golden ~sheet sink)
        | Kernel.Engine.Finished o ->
            (* the failure was deferred past the final commit: nothing
               follows *)
            session.Apps.Common.ses_finish ();
            standing (final_tail o ~diff:(nv_diff golden))
      in
      Obs.Attr.add_run attr;
      ( {
          schedule = Failure.Nth_charge k;
          pf = pf + tail.pf_added;
          violations =
            verdict ~gave_up:tail.gave_up ~stuck_task:tail.stuck_task ~correct:tail.correct
              ~diff:tail.diff ~skipped:(skips ());
        },
        Obs.Snapshot.merge snap tail.delta,
        Obs.Attr.profile attr,
        add_totals totals tail.added )
    in
    (o0, m, resumed_case)
  in
  (* the calling domain's pacer run doubles as the golden capture *)
  let o0, m, home_case = pacer () in
  let golden = Oracle.capture m in
  check_golden spec variant ~gave_up:o0.Kernel.Engine.gave_up ~correct:o0.Kernel.Engine.correct;
  let scheds = Array.of_list (schedules ~sweep ~seed ~golden) in
  let home = Domain.self () in
  let init () =
    if Domain.self () = home then home_case
    else
      let _, _, case = pacer () in
      case
  in
  fold_cases ?jobs ?progress ~init ~sweep ~golden variant (Array.length scheds) (fun case i ->
      match scheds.(i) with
      | Failure.Nth_charge k -> case ~golden k
      | _ -> invalid_arg "Campaign: resumed sweep")

let run_cell ?jobs ?progress ~resume ~sweep ~seed (spec : Apps.Common.spec) variant =
  match (sweep, spec.Apps.Common.session) with
  | Boundaries _, Some mk_session when resume ->
      run_cell_resumed ?jobs ?progress ~sweep ~seed spec mk_session variant
  | _ ->
      let golden = golden_of spec variant ~seed in
      let scheds = Array.of_list (schedules ~sweep ~seed ~golden) in
      (* one case per schedule, fanned over the domain pool and folded
         in schedule order, so the cell (and hence the report, its
         metrics and its JSON) is bit-identical for any [jobs] *)
      fold_cases ?jobs ?progress ~init:ignore ~sweep ~golden variant (Array.length scheds)
        (fun () i -> run_case spec variant ~golden ~seed scheds.(i))

let run ?jobs ?progress ?(resume = true) ?(seed = 1) ~sweep ~variants (spec : Apps.Common.spec) =
  {
    app = spec.app_name;
    sweep;
    seed;
    cells = List.map (run_cell ?jobs ?progress ~resume ~sweep ~seed spec) variants;
  }

let cell_passed c = c.failed = []
let passed r = List.for_all cell_passed r.cells

let coverage_totals r =
  List.fold_left (fun (t, run) c -> (t + c.boundaries, run + c.boundaries_run)) (0, 0) r.cells

let strided r = List.exists (fun c -> c.strided) r.cells

(* {1 Campaign-wide observability} *)

let snapshot r =
  List.fold_left (fun acc c -> Obs.Snapshot.merge acc c.snap) Obs.Snapshot.zero r.cells

let profile r = List.fold_left (fun acc c -> Obs.Attr.merge acc c.cell_profile) Obs.Attr.empty r.cells
let totals r = List.fold_left (fun acc c -> add_totals acc c.cell_totals) zero_totals r.cells

let reconcile r =
  let t = totals r in
  Obs.Attr.reconcile (profile r) ~app_us:t.app_us ~ovh_us:t.ovh_us ~wasted_us:t.wasted_us
    ~commits:t.commits ~attempts:t.attempts

let flamegraph r = Obs.Attr.to_folded ~prefix:r.app (profile r)

let perfetto r =
  let cells = Array.of_list r.cells in
  let series f = Array.map f cells in
  Obs.Attr.perfetto_counters
    [
      ("campaign/app_us", series (fun c -> c.cell_totals.app_us));
      ("campaign/ovh_us", series (fun c -> c.cell_totals.ovh_us));
      ("campaign/wasted_us", series (fun c -> c.cell_totals.wasted_us));
      ("campaign/power_failures", series (fun c -> c.cell_profile.Obs.Attr.power_failures));
      ("campaign/failed_cases", series (fun c -> c.failed_count));
    ]

(* {1 JSON} *)

let max_failed_in_json = 20

let violation_text = function
  | Livelock task -> "livelock in task " ^ task
  | App_incorrect -> "app check failed"
  | Nv_mismatch (m :: _) -> Format.asprintf "NV state diverged: %a" Oracle.pp_mismatch m
  | Nv_mismatch [] -> "NV state diverged"
  | Always_skipped sites -> "Always I/O skipped at " ^ String.concat ", " sites

let violation_json = function
  | Livelock task ->
      Trace.Json.Obj
        [ ("kind", Trace.Json.String "livelock"); ("stuck_task", Trace.Json.String task) ]
  | App_incorrect -> Trace.Json.Obj [ ("kind", Trace.Json.String "app-incorrect") ]
  | Nv_mismatch ms ->
      Trace.Json.Obj
        [
          ("kind", Trace.Json.String "nv-mismatch");
          ( "mismatches",
            Trace.Json.List
              (List.map
                 (fun (m : Oracle.mismatch) ->
                   Trace.Json.Obj
                     [
                       ("region", Trace.Json.String m.region);
                       ("offset", Trace.Json.Int m.offset);
                       ("expected", Trace.Json.Int m.expected);
                       ("actual", Trace.Json.Int m.actual);
                     ])
                 ms) );
        ]
  | Always_skipped sites ->
      Trace.Json.Obj
        [
          ("kind", Trace.Json.String "always-skipped");
          ("sites", Trace.Json.List (List.map (fun s -> Trace.Json.String s) sites));
        ]

let case_json c =
  Trace.Json.Obj
    [
      ("schedule", Trace.Json.String (Failure.to_string c.schedule));
      ("power_failures", Trace.Json.Int c.pf);
      ("violations", Trace.Json.List (List.map violation_json c.violations));
    ]

let totals_json t =
  Trace.Json.Obj
    [
      ("app_us", Trace.Json.Int t.app_us);
      ("ovh_us", Trace.Json.Int t.ovh_us);
      ("wasted_us", Trace.Json.Int t.wasted_us);
      ("commits", Trace.Json.Int t.commits);
      ("attempts", Trace.Json.Int t.attempts);
    ]

let cell_json c =
  Trace.Json.Obj
    [
      ("runtime", Trace.Json.String (Apps.Common.variant_name c.variant));
      ("boundaries", Trace.Json.Int c.boundaries);
      ("cases", Trace.Json.Int c.cases);
      ("boundaries_total", Trace.Json.Int c.boundaries);
      ("boundaries_run", Trace.Json.Int c.boundaries_run);
      ("strided", Trace.Json.Bool c.strided);
      ("passed", Trace.Json.Bool (cell_passed c));
      ("failed_count", Trace.Json.Int c.failed_count);
      ( "failed_cases",
        Trace.Json.List (List.map case_json (failed_cases ~limit:max_failed_in_json c.failed)) );
      ("totals", totals_json c.cell_totals);
      ("metrics", Obs.Snapshot.to_json c.snap);
      ("profile", Obs.Attr.to_json c.cell_profile);
    ]

let to_json r =
  let boundaries_total, boundaries_run = coverage_totals r in
  Trace.Json.Obj
    [
      ("app", Trace.Json.String r.app);
      ("sweep", Trace.Json.String (sweep_to_string r.sweep));
      ("seed", Trace.Json.Int r.seed);
      ("boundaries_total", Trace.Json.Int boundaries_total);
      ("boundaries_run", Trace.Json.Int boundaries_run);
      ("strided", Trace.Json.Bool (strided r));
      ("passed", Trace.Json.Bool (passed r));
      ("cells", Trace.Json.List (List.map cell_json r.cells));
      ("totals", totals_json (totals r));
      ("metrics", Obs.Snapshot.to_json (snapshot r));
      ("profile", Obs.Attr.to_json (profile r));
    ]
