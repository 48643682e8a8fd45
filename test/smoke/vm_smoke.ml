(* CI smoke: compile every catalog application to bytecode and check
   the VM against the tree-walking oracle on a small seed set, under
   continuous power and the paper's timer failures, and under
   [Nth_charge] failures at strided charge boundaries of a clean run —
   boundaries that land inside the straight-line blocks whose charges
   the VM applies in one step. Exits non-zero on the first divergence
   — `dune build @vm-smoke`. *)

open Platform

let checked = ref 0
let bad = ref 0

let compare_run (spec : Apps.Common.spec) variant ~failure ~seed =
  let run interp =
    Apps.Common.default_interp := interp;
    spec.run variant ~failure ~seed
  in
  let tree = run Apps.Common.Tree_walk in
  let vm = run Apps.Common.Bytecode in
  incr checked;
  if tree <> vm then begin
    incr bad;
    Printf.eprintf "vm-smoke: DIVERGENCE %s/%s/%s/seed%d\n%!" spec.app_name
      (Apps.Common.variant_name variant)
      (Failure.to_string failure) seed
  end

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
          Apps.Common.default_interp := Apps.Common.Bytecode;
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
    Printf.eprintf "vm-smoke: %d/%d configurations diverged\n%!" !bad !checked;
    exit 1
  end;
  Printf.printf "vm-smoke: VM == tree-walker on %d configurations\n%!" !checked
