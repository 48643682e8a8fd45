(* CI smoke: compile every catalog application to bytecode and check
   the VM against the tree-walking oracle on a small seed set, under
   continuous power and the paper's timer failures, and under
   [Nth_charge] failures at strided charge boundaries of a clean run —
   boundaries that land inside the straight-line blocks whose charges
   the VM applies in one step. Every configuration runs twice: without
   observers, and traced, where the two executors must also emit the
   same events (the VM batches traced blocks too, while no capacitor
   sample falls due inside them). Exits non-zero on the first
   divergence — `dune build @vm-smoke`. *)

open Platform

let checked = ref 0
let bad = ref 0

let compare_run (spec : Apps.Common.spec) variant ~failure ~seed =
  let run ?sink interp = spec.run ~interp ?sink variant ~failure ~seed in
  let traced interp =
    let r = Trace.Recorder.create () in
    let one = run ~sink:(Trace.Recorder.sink r) interp in
    (one, Trace.Recorder.events r)
  in
  let diverged what =
    incr bad;
    Printf.eprintf "vm-smoke: DIVERGENCE%s %s/%s/%s/seed%d\n%!" what spec.app_name
      (Apps.Common.variant_name variant)
      (Failure.to_string failure) seed
  in
  incr checked;
  if run Apps.Common.Tree_walk <> run Apps.Common.Bytecode then diverged "";
  if traced Apps.Common.Tree_walk <> traced Apps.Common.Bytecode then diverged " (traced)"

(* Boundaries per app x runtime; the stride is odd so the points do not
   keep one phase of a loop body. *)
let nth_points = 40

let () =
  List.iter
    (fun (spec : Apps.Common.spec) ->
      List.iter
        (fun variant ->
          List.iter
            (fun failure ->
              List.iter (fun seed -> compare_run spec variant ~failure ~seed) [ 1; 2 ])
            [ Failure.No_failures; Failure.paper_timer ];
          let total = ref 0 in
          ignore
            (spec.run variant ~failure:Failure.No_failures ~seed:1 ~probe:(fun m ->
                 total := Machine.charges m));
          let stride = (!total / nth_points) lor 1 in
          let n = ref 2 in
          while !n <= !total do
            compare_run spec variant ~failure:(Failure.Nth_charge !n) ~seed:1;
            n := !n + stride
          done)
        Apps.Common.all_variants)
    Apps.Catalog.all;
  if !bad > 0 then begin
    Printf.eprintf "vm-smoke: %d divergences in %d configurations\n%!" !bad !checked;
    exit 1
  end;
  Printf.printf "vm-smoke: VM == tree-walker on %d configurations, untraced and traced\n%!"
    !checked
