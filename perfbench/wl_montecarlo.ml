(* montecarlo: the paper's protocol (§5.3). Every catalog app under
   every runtime, 1000 seeds per app drawn from the workload seed and
   shared by its four runtimes, under timer failures U[5 ms, 20 ms],
   on one domain. An op is one [spec.run]. *)

open Env
module S = Perfbench.Spans
module St = Perfbench.Stats
module C = Apps.Common

let per_app = 1000
let paper = Expkit.Experiments.paper_failures

type cell = { spec : C.spec; variant : C.variant; seeds : int array; mutable golden : Expkit.Run.one option }

let cells ~seed =
  let rng = Random.State.make [| seed; 0x6d63 |] in
  List.concat_map
    (fun spec ->
      let seeds = Array.init per_app (fun _ -> Random.State.bits rng) in
      List.map (fun variant -> { spec; variant; seeds; golden = None }) C.all_variants)
    Apps.Catalog.all
  |> Array.of_list

(* The runtimes whose answers must be right: Alpaca and InK corrupt FIR
   by design (the paper's point), EaseIO must not. *)
let checked v = v = C.Easeio || v = C.Easeio_op

(* VM images (compiled by each cell's first run on this domain), one
   golden and one warm-up run per (app, runtime). *)
let setup cells () =
  Array.map
    (fun c ->
      let g = c.spec.run c.variant ~failure:Platform.Failure.No_failures ~seed:0 in
      ignore (c.spec.run c.variant ~failure:paper ~seed:c.seeds.(0));
      g)
    cells

type pass = {
  lat : St.samples;
  weather : St.samples;
  mutable ops : int;
  mutable failed : int;
  mutable commits : int;
  mutable attempts : int;
  (* exact sums over the first pass's EaseIO and EaseIO/Op runs *)
  mutable sim_runs : int;
  mutable sim_us : int;
  mutable sim_nj : float;
  mutable sim_redundant : int;
}

let new_pass () =
  {
    lat = St.samples ();
    weather = St.samples ();
    ops = 0;
    failed = 0;
    commits = 0;
    attempts = 0;
    sim_runs = 0;
    sim_us = 0;
    sim_nj = 0.;
    sim_redundant = 0;
  }

(* One round runs seed [i] of every cell, so stopping between rounds
   keeps the app mix balanced. *)
let round spans p cells i ~first =
  Array.iter
    (fun c ->
      let op = p.ops in
      let t0 = now () in
      let r =
        try
          Ok
            (S.with_ spans ~op "apps.run" (fun _ ->
                 c.spec.run c.variant ~failure:paper ~seed:c.seeds.(i)))
        with e -> Error e
      in
      let dt = now () -. t0 in
      St.push p.lat dt;
      if c.spec == Apps.Weather.spec then St.push p.weather dt;
      p.ops <- p.ops + 1;
      match r with
      | Error _ -> p.failed <- p.failed + 1
      | Ok one ->
          p.commits <- p.commits + one.Expkit.Run.commits;
          p.attempts <- p.attempts + one.Expkit.Run.attempts;
          if checked c.variant then begin
            if one.Expkit.Run.correct <> Some true || one.Expkit.Run.gave_up then
              p.failed <- p.failed + 1;
            if first then begin
              let golden = Option.get c.golden in
              p.sim_runs <- p.sim_runs + 1;
              p.sim_us <- p.sim_us + one.Expkit.Run.total_us;
              p.sim_nj <- p.sim_nj +. one.Expkit.Run.energy_nj;
              p.sim_redundant <- p.sim_redundant + Expkit.Run.redundant_vs_golden ~golden one
            end
          end)
    cells

(* The full protocol once, then more rounds until [seconds] have
   passed since the start; the host-speed loop runs every 20 rounds. *)
let measure spans cells ~seconds =
  let p = new_pass () in
  let t0 = now () in
  for i = 0 to per_app - 1 do
    round spans p cells i ~first:true;
    if i mod 20 = 0 then calibrate ()
  done;
  let i = ref 0 in
  while now () -. t0 < seconds do
    round spans p cells !i ~first:false;
    if !i mod 20 = 0 then calibrate ();
    i := (!i + 1) mod per_app
  done;
  (p, now () -. t0)

let run (ctx : ctx) =
  let cells = cells ~seed:ctx.seed in
  let use goldens = Array.iteri (fun i c -> c.golden <- Some goldens.(i)) cells in
  let off = S.create ~enabled:false in
  if not ctx.trace then begin
    let (p, wall, rss), setups =
      repeated_setup ~k:21 (setup cells) ~after:(fun goldens ->
          use goldens;
          let p, wall = measure off cells ~seconds:ctx.seconds in
          (p, wall, peak_rss_mb ()))
    in
    let p50, p99, lat_note = latency_ms ~what:"op" p.lat in
    let k = at_ref () in
    let sim_n = float_of_int p.sim_runs in
    {
      attempted = p.ops;
      failed = p.failed;
      e2e =
        [
          ("setup_s", St.median setups *. k);
          ("ops_per_s", float_of_int p.ops /. wall /. k);
          ("latency_p50_ms", p50 *. k);
          ("latency_p99_ms", p99 *. k);
          ("peak_rss_mb", rss);
          ("sim_total_ms", float_of_int p.sim_us /. sim_n /. 1e3);
          ("sim_energy_uj", p.sim_nj /. sim_n /. 1e3);
          ("sim_redundant_io", float_of_int p.sim_redundant /. sim_n);
        ];
      layer = [];
      notes =
        [
          Printf.sprintf "setup: %d set-ups, median %.4f s" (List.length setups) (St.median setups);
          Printf.sprintf "ops: %d spec.run over %.3f s (%d cells x %d seeds, then repeated rounds)" p.ops wall
            (Array.length cells) per_app;
          lat_note;
          Printf.sprintf "sim: means over %d EaseIO and EaseIO/Op runs of the first pass" p.sim_runs;
          calib_note ();
        ];
      spans = [];
      window = (0., 0.);
    }
  end
  else begin
    use (setup cells ());
    (* the fixed first pass untraced, traced, then untraced again: the
       traced wall time minus the mean untraced one is the tracing
       overhead, with the heap's growth in the first pass averaged out *)
    let _, before = measure off cells ~seconds:0. in
    let spans = S.create ~enabled:true in
    let g0 = gc_counts () in
    let w0 = now () in
    let p, traced = measure spans cells ~seconds:0. in
    let w1 = now () in
    let g1 = gc_counts () in
    let _, after = measure off cells ~seconds:0. in
    let plain = (before +. after) /. 2. in
    let srcs = Probes.catalog_sources in
    let lang_vm = Probes.lang_vm spans ~seed:ctx.seed ~runs:200 srcs in
    let io =
      Probes.core_io spans ~seed:ctx.seed ~runs:50
        (List.concat_map
           (fun spec -> [ (spec, C.Easeio); (spec, C.Easeio_op) ])
           Apps.Catalog.all)
    in
    let weather_us = St.median (Array.to_list (St.sorted p.weather)) *. 1e6 in
    {
      attempted = p.ops;
      failed = p.failed;
      e2e = [];
      layer =
        lang_vm @ io
        @ [
            ("kernel.commit_ratio", float_of_int p.commits /. float_of_int p.attempts);
            ("apps.weather_run_us", weather_us);
            ("trace.overhead_s", traced -. plain);
          ]
        @ Probes.gc_per_op ~ops:p.ops g0 g1;
      notes =
        [
          Printf.sprintf "traced pass: %d ops in %.3f s; untraced %.3f s" p.ops traced plain;
          Printf.sprintf "weather runs: %d, median %.1f us" (St.count p.weather) weather_us;
        ];
      spans = S.spans spans;
      window = (w0, w1);
    }
  end
