
type one = {
  completed : bool;
  correct : bool option;
  gave_up : bool;
  stuck_task : string option;
  total_us : int;
  app_us : int;
  ovh_us : int;
  wasted_us : int;
  energy_nj : float;
  pf : int;
  commits : int;
  attempts : int;
  io : (string * int) list;
}

let of_outcome m (o : Kernel.Engine.outcome) =
  {
    completed = o.completed;
    (* a gave-up run counts as incorrect in aggregates (the engine
       itself reports [None]: the check never ran) *)
    correct = (if o.gave_up then Some false else o.correct);
    gave_up = o.gave_up;
    stuck_task = o.stuck_task;
    total_us = o.total_time_us;
    app_us = o.metrics.Kernel.Metrics.useful_app_us;
    ovh_us = o.metrics.Kernel.Metrics.useful_ovh_us;
    wasted_us = o.metrics.Kernel.Metrics.wasted_us;
    energy_nj = o.energy_nj;
    pf = o.power_failures;
    commits = o.metrics.Kernel.Metrics.commits;
    attempts = o.metrics.Kernel.Metrics.attempts;
    io = Kernel.Golden.io_executions m;
  }

type agg = {
  runs : int;
  avg_total_ms : float;
  avg_app_ms : float;
  avg_ovh_ms : float;
  avg_wasted_ms : float;
  avg_energy_uj : float;
  avg_pf : float;
  avg_io : float;
  avg_redundant_io : float;
  correct_runs : int;
  incorrect_runs : int;
}

let io_total one = List.fold_left (fun acc (_, n) -> acc + n) 0 one.io

(* The golden I/O counts used to be probed with [List.assoc] per entry
   per run — O(runs * kinds^2) over an aggregate. Build the lookup once
   per aggregate instead; first binding wins, like [List.assoc]. *)
let golden_io_table golden =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (name, n) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name n) golden.io;
  tbl

let redundant_io gtbl one =
  List.fold_left
    (fun acc (name, n) ->
      let g = match Hashtbl.find_opt gtbl name with Some g -> g | None -> 0 in
      acc + max 0 (n - g))
    0 one.io

let redundant_vs_golden ~golden one = redundant_io (golden_io_table golden) one

let check_trace one events =
  let attr = Obs.Attr.create () in
  let attr_sink = Obs.Attr.sink attr in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.Event.t) ->
      attr_sink e;
      match e.payload with
      | Trace.Event.Count { name; count } when String.starts_with ~prefix:"io:" name ->
          Hashtbl.replace counts name count
      | _ -> ())
    events;
  Obs.Attr.add_run attr;
  let profile = Obs.Attr.profile attr in
  let show io = String.concat "; " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) io) in
  match
    Obs.Attr.reconcile profile ~app_us:one.app_us ~ovh_us:one.ovh_us ~wasted_us:one.wasted_us
      ~commits:one.commits ~attempts:one.attempts
  with
  | Error _ as e -> e
  | Ok () ->
      let traced = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []) in
      let expected = List.sort compare one.io in
      if traced = expected then Ok profile
      else
        Error
          (Printf.sprintf "io executions: metrics say [%s], trace says [%s]" (show expected)
             (show traced))

let average ?jobs ?tick ~runs ~golden f =
  if runs < 1 then invalid_arg "Run.average: runs must be positive";
  let g = golden () in
  let gtbl = golden_io_table g in
  (* fan the seed sweep out over domains; [ones] comes back in seed
     order, so the float accumulation below happens in exactly the
     order the sequential loop used and the aggregate is bit-identical
     for any [jobs] *)
  let ones = Pool.map_seeds ?jobs ?tick ~runs f in
  let acc_total = ref 0. and acc_app = ref 0. and acc_ovh = ref 0. in
  let acc_wasted = ref 0. and acc_energy = ref 0. and acc_pf = ref 0. in
  let acc_io = ref 0. and acc_red = ref 0. in
  let correct = ref 0 and incorrect = ref 0 in
  Array.iter
    (fun one ->
      acc_total := !acc_total +. float_of_int one.total_us;
      acc_app := !acc_app +. float_of_int one.app_us;
      acc_ovh := !acc_ovh +. float_of_int one.ovh_us;
      acc_wasted := !acc_wasted +. float_of_int one.wasted_us;
      acc_energy := !acc_energy +. one.energy_nj;
      acc_pf := !acc_pf +. float_of_int one.pf;
      acc_io := !acc_io +. float_of_int (io_total one);
      acc_red := !acc_red +. float_of_int (redundant_io gtbl one);
      match one.correct with
      | Some true -> incr correct
      | Some false -> incr incorrect
      | None -> ())
    ones;
  let n = float_of_int runs in
  {
    runs;
    avg_total_ms = !acc_total /. n /. 1000.;
    avg_app_ms = !acc_app /. n /. 1000.;
    avg_ovh_ms = !acc_ovh /. n /. 1000.;
    avg_wasted_ms = !acc_wasted /. n /. 1000.;
    avg_energy_uj = !acc_energy /. n /. 1000.;
    avg_pf = !acc_pf /. n;
    avg_io = !acc_io /. n;
    avg_redundant_io = !acc_red /. n;
    correct_runs = !correct;
    incorrect_runs = !incorrect;
  }
