(* The benchmark executable: runs one workload for one seed and prints
   a human-readable report, then one line of JSON with the op counts and
   the metrics it measured. Untraced runs measure the end-to-end
   metrics; traced runs (--trace 1) the per-layer ones, and write their
   spans as a Chrome/Perfetto trace.

   perfbench/run.py builds this executable, checks the metric names
   against BENCHMARK.json and prints the result line:
     python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 10 --trace 0 *)

open Env

let workloads =
  [ ("montecarlo", Wl_montecarlo.run); ("verify", Wl_verify.run); ("serve", Wl_serve.run) ]

(* Span-derived layer metrics: self time and count per layer, the share
   of the traced pass the root spans cover, and the span total. *)
let span_metrics (o : outcome) =
  let lo, hi = o.window in
  let within = List.filter (fun s -> s.Perfbench.Spans.t0 >= lo && s.Perfbench.Spans.t1 <= hi) o.spans in
  ("trace.span_coverage", Perfbench.Spans.coverage ~lo ~hi within)
  :: ("trace.spans", float_of_int (List.length o.spans))
  :: List.concat_map
       (fun (l, self, n) -> [ (l ^ ".self_ms", self *. 1e3); (l ^ ".spans", float_of_int n) ])
       (Perfbench.Spans.by_layer o.spans)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let nproc = ref 1 and cli = ref "" and out_dir = ref ".bench_out" and sha = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " montecarlo | verify | serve");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " minimum measured time");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--nproc", Arg.Set_int nproc, " CPUs available to this process");
      ("--cli", Arg.Set_string cli, " path of the easeio executable");
      ("--out", Arg.Set_string out_dir, " directory for the traced run's span file");
      ("--sha", Arg.Set_string sha, " git commit of the program, for provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
  in
  let ctx =
    { seed = !seed; seconds = !seconds; trace = !trace = 1; nproc = !nproc; cli = !cli; out_dir = !out_dir }
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" !workload !seed !seconds !trace;
  Printf.printf "provenance: nproc=%d recommended_domains=%d ocaml=%s sha=%s\n%!" !nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version !sha;
  let o = run ctx in
  List.iter print_endline o.notes;
  Printf.printf "ops: attempted %d, failed %d, ops_failed_pct %.4f\n" o.attempted o.failed
    (100. *. float_of_int o.failed /. float_of_int (max 1 o.attempted));
  let metrics =
    if ctx.trace then begin
      let path = Filename.concat ctx.out_dir (!workload ^ ".trace.json") in
      (try Unix.mkdir ctx.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Trace.Json.to_file path
        (Perfbench.Spans.to_chrome ~base:(fst o.window)
           ~meta:
             [
               ("workload", Trace.Json.String !workload);
               ("seed", Trace.Json.Int !seed);
               ("nproc", Trace.Json.Int !nproc);
               ("recommended_domains", Trace.Json.Int (Domain.recommended_domain_count ()));
               ("ocaml", Trace.Json.String Sys.ocaml_version);
               ("sha", Trace.Json.String !sha);
             ]
           o.spans);
      Printf.printf "trace: %d spans written to %s\n" (List.length o.spans) path;
      span_metrics o @ o.layer
    end
    else o.e2e
  in
  Printf.printf "{\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" o.attempted o.failed
    (String.concat ","
       (List.map
          (fun (name, v) ->
            if not (Float.is_finite v) then failwith ("non-finite metric " ^ name);
            Printf.sprintf "\"%s\":%.17g" name v)
          metrics))
