open Platform

(* Exhaustive reboot-space exploration.

   The paper's safety argument is per-boundary: for EVERY point where
   power can fail, the post-reboot continuation must commit the same
   final NV state as the uninterrupted run. A boundary sweep checks
   each single failure from power on; this module walks the full tree —
   every reboot point, then every reboot point of each continuation,
   up to a reboot-count depth — by forking copy-on-write machine
   snapshots at charge boundaries instead of replaying prefixes.

   A node is a quiescent post-reboot engine state (an
   {!Kernel.Engine.checkpoint} plus the extra-machine state of the
   app's session: radio log, VM dispatch counters). Visiting a node:

   - pace its continuation to completion with the (now inert, one-shot)
     latched [Nth_charge] spec, checkpointing at every attempt top
     ({!Kernel.Walker.pace});
   - judge the final state with the campaign verdict (livelock, app
     check, differential NV image, Always re-execution);
   - for every charge boundary [k] the continuation crossed, fail the
     walk at [k] ({!Kernel.Walker.fail}: the machine as the walker
     captured it at [k], failed) and reboot — that post-reboot state is
     a child.

   A child equal to a visited state ({!Faultkit.Seen}, the equivalence
   resumed sweeps share continuations by) is pruned. Equal states
   evolve identically modulo time-derived (declared-volatile) columns,
   so re-exploring one cannot surface a new violation. Pruning is what
   makes the walk converge — every boundary inside a stretch that
   touches no non-volatile state collapses onto one representative.
   [~prune:false] disables it (the prune-soundness test runs both ways
   and demands the same set of distinct violations — a pruned state can
   drop a reboot schedule from the report, never a violation).

   Machine snapshots meter nothing: [snapshot/pages_copied] counts the
   pages the walks' attempt-top checkpoints copied, which the untaped
   {!Kernel.Walker.pace} adds to the walk's sheet. *)

type violation = Faultkit.Campaign.violation =
  | Livelock of string
  | App_incorrect
  | Nv_mismatch of Faultkit.Oracle.mismatch list
  | Always_skipped of string list

type finding = { reboots : int list; violations : violation list }

type report = {
  app : string;
  variant : Apps.Common.variant;
  seed : int;
  depth : int;
  boundaries : int;
  states : int;
  pruned : int;
  truncated : bool;
  findings : finding list;
  snap : Obs.Snapshot.t;
  profile : Obs.Attr.profile;
}

let c_states = Obs.Registry.counter "explore/states"
let c_pruned = Obs.Registry.counter "explore/pruned"
let c_prefix_saved = Obs.Registry.counter "resume/prefix_us_saved"

let passed r = r.findings = []

let explore ?(depth = 1) ?max_states ?(prune = true) ?ablate_regions ?ablate_semantics ?progress
    (spec : Apps.Common.spec) variant ~seed =
  let session =
    match spec.Apps.Common.session with
    | Some f -> f ?ablate_regions ?ablate_semantics variant ~seed
    | None ->
        invalid_arg
          (Printf.sprintf "Explore: %s has no session runner" spec.Apps.Common.app_name)
  in
  let m = session.Apps.Common.ses_machine in
  let sheet = Obs.Sheet.create () in
  Machine.set_meter m sheet;
  let attr = Obs.Attr.create () in
  let attr_sink = Obs.Attr.sink attr in
  (* one sink attachment for the whole exploration; the Always watch is
     swapped per continuation through this ref (positioning runs get a
     no-op: their decisions are replays of segments the parent's watch
     already screened) *)
  let no_watch (_ : Trace.Event.t) = () in
  let watch = ref no_watch in
  Machine.set_sink m (fun e ->
      !watch e;
      attr_sink e);
  session.Apps.Common.ses_begin ();
  let engine =
    Kernel.Engine.start ~hooks:session.Apps.Common.ses_hooks
      ?cur_slot:session.Apps.Common.ses_cur_slot m session.Apps.Common.ses_app
  in
  let golden = ref None in
  (* Every simulated segment flushes its VM dispatch counts and counts
     on from zero, so [vm/*] sums the whole walk as [engine/*] does. A
     child's positioning is the segment from its attempt top to the
     failure: the walker restarts the counts at the top ([ses_begin]),
     and a boundary restores the counts captured there. *)
  let flush () =
    session.Apps.Common.ses_finish ();
    session.Apps.Common.ses_begin ()
  in
  (* Pace the engine's current position to completion. The latched
     failure spec is one-shot and has already fired (or is
     [No_failures] at the root), so the run does not pause. *)
  let run_continuation () =
    let w, skips = Faultkit.Oracle.always_skip_watch () in
    watch := w;
    let o, walk =
      Kernel.Walker.pace ~restart:session.Apps.Common.ses_begin ~save:session.Apps.Common.ses_save
        engine
    in
    watch := no_watch;
    flush ();
    Obs.Attr.add_run attr;
    (o, walk, skips ())
  in
  let seen = Faultkit.Seen.create () in
  let states = ref 0
  and pruned = ref 0
  and truncated = ref false
  and findings = ref []
  and explore_us = ref 0 in
  let budget_left () =
    match max_states with
    | Some n when !states >= n ->
        truncated := true;
        false
    | _ -> true
  in
  (* judge a finished run; a violating one becomes a finding *)
  let record ~reboots (o : Kernel.Engine.outcome) skipped =
    let violations =
      Faultkit.Campaign.verdict ~gave_up:o.Kernel.Engine.gave_up
        ~stuck_task:o.Kernel.Engine.stuck_task ~correct:o.Kernel.Engine.correct
        ~diff:
          (Faultkit.Oracle.nv_diff ~extra_volatile:spec.Apps.Common.nv_volatile
             ~golden:(Option.get !golden) m)
        ~skipped
    in
    if violations <> [] then findings := { reboots = List.rev reboots; violations } :: !findings
  in
  (* Visit the node the engine is currently positioned at: judge its
     continuation, then expand its children depth-first (boundaries in
     ascending charge order, so reports are deterministic). *)
  let rec visit ~reboots ~depth_left =
    incr states;
    Obs.Sheet.bump sheet c_states;
    Option.iter (fun p -> Obs.Progress.tick p) progress;
    let o, walk, skips = run_continuation () in
    record ~reboots o skips;
    if depth_left > 0 then expand ~reboots ~depth_left walk
  and expand ~reboots ~depth_left walk =
    let n_final = Machine.charges m in
    let k = ref (Kernel.Walker.first_charges walk + 1) in
    while !k <= n_final && budget_left () do
      let step = Kernel.Walker.fail walk !k in
      let before = Kernel.Walker.top_us walk in
      Obs.Sheet.add sheet c_prefix_saved before;
      flush ();
      (match step with
      | Kernel.Engine.Finished o ->
          (* the failure was deferred into the final commit's critical
             section and the run completed first: a full execution,
             judged on its final state (its decisions replay the
             parent's, so no fresh Always watch is needed) *)
          explore_us := !explore_us + (Machine.now m - before);
          record ~reboots:(!k :: reboots) o []
      | Kernel.Engine.Paused ->
          Kernel.Engine.resume engine;
          explore_us := !explore_us + (Machine.now m - before);
          let fresh =
            (not prune)
            ||
            match Faultkit.Seen.find seen engine session.Apps.Common.ses_radio with
            | Faultkit.Seen.Hit () -> false
            | Faultkit.Seen.Miss miss ->
                Faultkit.Seen.add seen miss ();
                true
          in
          if fresh then
            (* the engine is already positioned at the child *)
            visit ~reboots:(!k :: reboots) ~depth_left:(depth_left - 1)
          else begin
            incr pruned;
            Obs.Sheet.bump sheet c_pruned
          end);
      incr k
    done
  in
  (* Root: the continuous run doubles as the golden capture — its
     checkpoints seed the whole boundary space (the first attempt top
     precedes every charge). *)
  incr states;
  Obs.Sheet.bump sheet c_states;
  Option.iter (fun p -> Obs.Progress.tick p) progress;
  let o0, walk0, skips0 = run_continuation () in
  golden := Some (Faultkit.Oracle.capture m);
  if o0.Kernel.Engine.gave_up || o0.Kernel.Engine.correct = Some false || skips0 <> [] then
    failwith
      (Printf.sprintf "Explore: golden (no-failure) run of %s under %s is not correct"
         spec.Apps.Common.app_name
         (Apps.Common.variant_name variant));
  let boundaries = Machine.charges m in
  if depth > 0 then expand ~reboots:[] ~depth_left:depth walk0;
  Obs.Attr.add_phase attr "explore" !explore_us;
  {
    app = spec.Apps.Common.app_name;
    variant;
    seed;
    depth;
    boundaries;
    states = !states;
    pruned = !pruned;
    truncated = !truncated;
    findings = List.rev !findings;
    snap = Obs.Snapshot.of_sheet ~events:(Machine.events m) sheet;
    profile = Obs.Attr.profile attr;
  }

(* {1 Exports} *)

let finding_json f =
  Trace.Json.Obj
    [
      ("reboots", Trace.Json.List (List.map (fun k -> Trace.Json.Int k) f.reboots));
      ("violations", Trace.Json.List (List.map Faultkit.Campaign.violation_json f.violations));
    ]

let max_findings_in_json = 20

let to_json r =
  Trace.Json.Obj
    [
      ("app", Trace.Json.String r.app);
      ("runtime", Trace.Json.String (Apps.Common.variant_name r.variant));
      ("seed", Trace.Json.Int r.seed);
      ("depth", Trace.Json.Int r.depth);
      ("boundaries", Trace.Json.Int r.boundaries);
      ("states", Trace.Json.Int r.states);
      ("pruned", Trace.Json.Int r.pruned);
      ("truncated", Trace.Json.Bool r.truncated);
      ("passed", Trace.Json.Bool (passed r));
      ("findings_count", Trace.Json.Int (List.length r.findings));
      ( "findings",
        Trace.Json.List
          (List.map finding_json (List.filteri (fun i _ -> i < max_findings_in_json) r.findings))
      );
      ("metrics", Obs.Snapshot.to_json r.snap);
      ("profile", Obs.Attr.to_json r.profile);
    ]

let flamegraph r = Obs.Attr.to_folded ~prefix:(r.app ^ "/explore") r.profile
