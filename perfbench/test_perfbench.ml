(* Tests for the benchmark's own logic: percentiles and their sample
   guard, span self time and coverage, and the seeded serve mix. *)

open Perfbench

let samples_of xs =
  let s = Stats.samples () in
  List.iter (Stats.push s) xs;
  Stats.sorted s

let range n = List.init n (fun i -> float_of_int (i + 1))

let percentile_counts () =
  (match Stats.percentile (samples_of (List.rev (range 1000))) 99. with
  | Ok p ->
      Alcotest.(check (float 0.)) "p99 value" 990. p.Stats.value;
      Alcotest.(check int) "n" 1000 p.Stats.n;
      Alcotest.(check int) "beyond" 10 p.Stats.beyond
  | Error e -> Alcotest.fail e);
  (match Stats.percentile (samples_of (range 1000)) 50. with
  | Ok p -> Alcotest.(check (float 0.)) "p50 value" 500. p.Stats.value
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "p99 of 999 has 9 beyond" true
    (Result.is_error (Stats.percentile (samples_of (range 999)) 99.));
  Alcotest.(check bool) "p50 of 19 has 9 beyond" true
    (Result.is_error (Stats.percentile (samples_of (range 19)) 50.));
  Alcotest.(check bool) "p50 of 20 has 10 beyond" true
    (Result.is_ok (Stats.percentile (samples_of (range 20)) 50.));
  Alcotest.(check bool) "no samples" true (Result.is_error (Stats.percentile [||] 50.));
  Alcotest.(check (float 0.)) "median, even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let span ?(parent = -1) id name t0 t1 = { Spans.id; parent; name; op = -1; tid = 0; t0; t1 }

let self_time () =
  let spans =
    [
      span 0 "faultkit.Campaign.run" 0. 10.;
      (* overlapping children count once; the part of a child outside
         its parent does not count *)
      span ~parent:0 1 "apps.run" 1. 3.;
      span ~parent:0 2 "apps.run" 2. 5.;
      span ~parent:0 3 "json.to_string" 8. 12.;
      span 4 "apps.run" 20. 21.;
    ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  Alcotest.(check (float 1e-9)) "parent self" 4. (List.assoc 0 self);
  Alcotest.(check (float 1e-9)) "leaf self" 2. (List.assoc 1 self);
  Alcotest.(check (list (triple string (float 1e-9) int)))
    "by layer"
    [ ("apps", 6., 3); ("faultkit", 4., 1); ("json", 4., 1) ]
    (Spans.by_layer spans);
  Alcotest.(check (float 1e-9)) "coverage of roots" 0.5 (Spans.coverage ~lo:0. ~hi:22. spans)

let mix_shares () =
  for seed = 1 to 20 do
    let a = Mix.classes ~seed ~blocks:7 in
    Alcotest.(check int) "length" (7 * Mix.block) (Array.length a);
    for b = 0 to 6 do
      let blk = Array.sub a (b * Mix.block) Mix.block in
      List.iter
        (fun c -> Alcotest.(check int) (Mix.name c ^ " per block") (Mix.share c) (Mix.count c blk))
        Mix.all
    done
  done;
  Alcotest.(check int) "shares sum to a block" Mix.block
    (List.fold_left (fun n c -> n + Mix.share c) 0 Mix.all);
  Alcotest.(check bool) "same seed, same sequence" true
    (Mix.classes ~seed:5 ~blocks:3 = Mix.classes ~seed:5 ~blocks:3);
  Alcotest.(check bool) "another seed, another order" true
    (Mix.classes ~seed:5 ~blocks:3 <> Mix.classes ~seed:6 ~blocks:3)

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentile with sample count" `Quick percentile_counts ]);
      ("spans", [ Alcotest.test_case "self time and coverage" `Quick self_time ]);
      ("mix", [ Alcotest.test_case "shares derived from a seed" `Quick mix_shares ]);
    ]
