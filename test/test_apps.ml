(* End-to-end tests of the five evaluation applications under every
   runtime variant. *)

open Platform
open Apps

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let paper_failures = Failure.paper_timer
let continuous = Failure.No_failures

let correct (one : Expkit.Run.one) =
  match one.correct with Some b -> b | None -> Alcotest.fail "app has no check"

(* {1 Continuous power: every app correct under every variant} *)

let test_all_correct_continuous () =
  List.iter
    (fun spec ->
      List.iter
        (fun v ->
          let one = spec.Common.run v ~failure:continuous ~seed:1 in
          checkb
            (Printf.sprintf "%s/%s completed" spec.Common.app_name (Common.variant_name v))
            true one.Expkit.Run.completed;
          checkb
            (Printf.sprintf "%s/%s correct" spec.Common.app_name (Common.variant_name v))
            true (correct one);
          checki
            (Printf.sprintf "%s/%s no failures" spec.Common.app_name (Common.variant_name v))
            0 one.Expkit.Run.pf)
        Common.all_variants)
    Catalog.all

(* {1 Intermittent execution} *)

let test_all_complete_under_paper_failures () =
  List.iter
    (fun spec ->
      List.iter
        (fun v ->
          let one = spec.Common.run v ~failure:paper_failures ~seed:3 in
          checkb
            (Printf.sprintf "%s/%s completed" spec.Common.app_name (Common.variant_name v))
            true one.Expkit.Run.completed;
          checkb
            (Printf.sprintf "%s/%s saw failures" spec.Common.app_name (Common.variant_name v))
            true (one.Expkit.Run.pf >= 0))
        Common.all_variants)
    Catalog.all

let test_easeio_always_correct_under_failures () =
  List.iter
    (fun spec ->
      for seed = 1 to 15 do
        let one = spec.Common.run Common.Easeio ~failure:paper_failures ~seed in
        checkb
          (Printf.sprintf "%s seed %d correct" spec.Common.app_name seed)
          true (correct one)
      done)
    Catalog.all

let count_io name (one : Expkit.Run.one) =
  try List.assoc ("io:" ^ name) one.Expkit.Run.io with Not_found -> 0

let avg_io variant spec name ~seeds =
  let total = ref 0 in
  for seed = 1 to seeds do
    total := !total + count_io name (spec.Common.run variant ~failure:paper_failures ~seed)
  done;
  float_of_int !total /. float_of_int seeds

let test_easeio_avoids_redundant_dma () =
  let alpaca = avg_io Common.Alpaca Uni.dma "DMA" ~seeds:10 in
  let easeio = avg_io Common.Easeio Uni.dma "DMA" ~seeds:10 in
  checkb
    (Printf.sprintf "easeio dma execs (%.1f) < alpaca (%.1f)" easeio alpaca)
    true (easeio < alpaca)

let test_easeio_avoids_redundant_sensing () =
  let alpaca = avg_io Common.Alpaca Uni.temp "Temp" ~seeds:10 in
  let easeio = avg_io Common.Easeio Uni.temp "Temp" ~seeds:10 in
  checkb
    (Printf.sprintf "easeio temp reads (%.1f) < alpaca (%.1f)" easeio alpaca)
    true (easeio < alpaca)

let test_lea_always_no_reduction () =
  (* Always-annotated operations re-execute under every runtime *)
  let alpaca = avg_io Common.Alpaca Uni.lea "LEA" ~seeds:10 in
  let easeio = avg_io Common.Easeio Uni.lea "LEA" ~seeds:10 in
  checkb
    (Printf.sprintf "easeio lea execs (%.1f) ~ alpaca (%.1f)" easeio alpaca)
    true (easeio >= alpaca *. 0.7 && easeio <= alpaca *. 1.3)

let incorrect_fraction spec variant ~seeds =
  let bad = ref 0 in
  for seed = 1 to seeds do
    if not (correct (spec.Common.run variant ~failure:paper_failures ~seed)) then incr bad
  done;
  float_of_int !bad /. float_of_int seeds

let test_fir_baselines_incorrect_easeio_correct () =
  let alpaca = incorrect_fraction Fir.spec Common.Alpaca ~seeds:30 in
  let ink = incorrect_fraction Fir.spec Common.Ink ~seeds:30 in
  let easeio = incorrect_fraction Fir.spec Common.Easeio ~seeds:30 in
  checkb (Printf.sprintf "alpaca corrupts sometimes (%.2f)" alpaca) true (alpaca > 0.);
  checkb (Printf.sprintf "ink corrupts sometimes (%.2f)" ink) true (ink > 0.);
  Alcotest.(check (float 0.0)) "easeio never" 0.0 easeio

let test_weather_single_buffer_table5 () =
  let frac variant buffering ~seeds =
    let bad = ref 0 in
    for seed = 1 to seeds do
      let one = Weather.run_once ~buffering variant ~failure:paper_failures ~seed in
      if not (correct one) then incr bad
    done;
    float_of_int !bad /. float_of_int seeds
  in
  checkb "alpaca single-buffer corrupts" true (frac Common.Alpaca `Single ~seeds:100 > 0.);
  checkb "ink single-buffer corrupts" true (frac Common.Ink `Single ~seeds:100 > 0.);
  Alcotest.(check (float 0.0)) "alpaca double-buffer correct" 0.0
    (frac Common.Alpaca `Double ~seeds:25);
  Alcotest.(check (float 0.0)) "easeio single-buffer correct" 0.0
    (frac Common.Easeio `Single ~seeds:25);
  Alcotest.(check (float 0.0)) "easeio double-buffer correct" 0.0
    (frac Common.Easeio `Double ~seeds:25)

(* Weather runs recycle one built machine per (variant, buffering) per
   domain, which leaves in place every runtime site that earlier runs
   allocated: sound only while every run visits the same sites in the
   same order. A recycled run must leave the machine, its metering and
   its summary exactly as a run on a freshly built machine does. *)
let test_weather_recycled_matches_fresh () =
  let final m meter =
    (Machine.snapshot_hash (Machine.snapshot m), Obs.Snapshot.of_sheet ~events:(Machine.events m) meter)
  in
  let fresh buffering variant ~seed =
    let m = Machine.create ~seed ~failure:paper_failures () and meter = Obs.Sheet.create () in
    Machine.set_meter m meter;
    let app, hooks, _radio = Weather.build ~buffering variant m in
    let o = Kernel.Engine.run ~hooks m app in
    let state = final m meter in
    (Expkit.Run.of_outcome m o, state)
  in
  let recycled buffering variant ~seed =
    let meter = Obs.Sheet.create () and state = ref None in
    let one =
      Weather.run_once ~buffering ~meter
        ~probe:(fun m -> state := Some (final m meter))
        variant ~failure:paper_failures ~seed
    in
    (one, Option.get !state)
  in
  for seed = 1 to 6 do
    List.iter
      (fun buffering ->
        List.iter
          (fun variant ->
            checkb
              (Printf.sprintf "%s seed %d: recycled run = fresh run" (Common.variant_name variant)
                 seed)
              true
              (recycled buffering variant ~seed = fresh buffering variant ~seed))
          Common.all_variants)
      [ `Double; `Single ]
  done

let test_easeio_reduces_wasted_work_dma () =
  let wasted variant =
    let total = ref 0 in
    for seed = 1 to 10 do
      let one = Uni.dma.Common.run variant ~failure:paper_failures ~seed in
      total := !total + one.Expkit.Run.wasted_us
    done;
    !total
  in
  let a = wasted Common.Alpaca and e = wasted Common.Easeio in
  checkb (Printf.sprintf "easeio wasted (%d) < alpaca (%d)" e a) true (e < a)

let test_easeio_op_cheaper_than_easeio_fir () =
  let total variant =
    let acc = ref 0 in
    for seed = 1 to 10 do
      acc := !acc + (Fir.spec.Common.run variant ~failure:paper_failures ~seed).Expkit.Run.total_us
    done;
    !acc
  in
  let e = total Common.Easeio and op = total Common.Easeio_op in
  checkb (Printf.sprintf "easeio/op (%d) <= easeio (%d)" op e) true (op <= e)

let test_catalog_table3 () =
  checki "five applications" 5 (List.length Catalog.all);
  let fir = Catalog.find "FIR filter" in
  checki "fir tasks" 5 fir.Common.tasks;
  let weather = Catalog.find "Weather App." in
  checki "weather tasks" 11 weather.Common.tasks;
  checki "weather io fns" 5 weather.Common.io_functions

let test_catalog_find_prefixes () =
  checkb "case-insensitive prefix" true
    (Catalog.find "weather" == Weather.spec && Catalog.find "fir" == Fir.spec);
  (* "temp" extends to both "Temp." and a hypothetical longer name; the
     exact normalized match must win. The shipped names are prefix-free,
     so ambiguity is exercised through an injected candidate list. *)
  let temp_long = { Uni.temp with Common.app_name = "Temperature logger" } in
  let candidates = Catalog.all @ [ temp_long ] in
  checkb "exact normalized match beats longer name" true
    (Catalog.find ~candidates "temp" == Uni.temp);
  (match Catalog.find ~candidates "te" with
  | _ -> Alcotest.fail "ambiguous prefix should not resolve"
  | exception Catalog.Ambiguous names ->
      checkb "ambiguity lists both matches" true
        (List.sort compare names = [ "Temp."; "Temperature logger" ]));
  match Catalog.find "no such app" with
  | _ -> Alcotest.fail "unknown name should not resolve"
  | exception Not_found -> ()

let test_deterministic_given_seed () =
  let run () = Uni.temp.Common.run Common.Easeio ~failure:paper_failures ~seed:7 in
  let a = run () and b = run () in
  checki "same total" a.Expkit.Run.total_us b.Expkit.Run.total_us;
  checki "same pf" a.Expkit.Run.pf b.Expkit.Run.pf

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "apps"
    [
      ( "correctness",
        [
          tc "all correct under continuous power" `Slow test_all_correct_continuous;
          tc "all complete under paper failures" `Slow test_all_complete_under_paper_failures;
          tc "easeio always correct under failures" `Slow test_easeio_always_correct_under_failures;
          tc "fir: baselines corrupt, easeio doesn't" `Slow test_fir_baselines_incorrect_easeio_correct;
          tc "weather single vs double buffer (table 5)" `Slow test_weather_single_buffer_table5;
          tc "weather: recycled runs match fresh builds" `Quick test_weather_recycled_matches_fresh;
        ] );
      ( "efficiency",
        [
          tc "easeio avoids redundant dma" `Slow test_easeio_avoids_redundant_dma;
          tc "easeio avoids redundant sensing" `Slow test_easeio_avoids_redundant_sensing;
          tc "lea (always) no reduction" `Slow test_lea_always_no_reduction;
          tc "easeio reduces wasted work (dma)" `Slow test_easeio_reduces_wasted_work_dma;
          tc "exclude lowers cost (fir)" `Slow test_easeio_op_cheaper_than_easeio_fir;
        ] );
      ( "meta",
        [
          tc "table 3 catalog" `Quick test_catalog_table3;
          tc "find: prefixes, exact wins, ambiguity" `Quick test_catalog_find_prefixes;
          tc "deterministic given seed" `Quick test_deterministic_given_seed;
        ] );
    ]
