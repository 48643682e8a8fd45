(* Unit and property tests for the platform substrate. *)

open Platform

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 20 in
    checkb "in range" true (v >= 5 && v <= 20)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "streams differ" true (xs <> ys)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng float in [0,bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.float r bound in
      v >= 0. && v < bound)

(* {1 Layout} *)

let test_layout_alloc () =
  let l = Layout.create ~words:100 in
  let a = Layout.alloc l ~name:"a" ~words:10 in
  let b = Layout.alloc l ~name:"b" ~words:20 in
  checki "first at 0" 0 a;
  checki "second after first" 10 b;
  checki "used" 30 (Layout.used l)

let test_layout_exhaustion () =
  let l = Layout.create ~words:10 in
  ignore (Layout.alloc l ~name:"a" ~words:8);
  Alcotest.check_raises "overflow"
    (Failure "Layout.alloc: out of memory allocating 8 words for b (used 8/10)") (fun () ->
      ignore (Layout.alloc l ~name:"b" ~words:8))

let test_layout_prefix_accounting () =
  let l = Layout.create ~words:100 in
  ignore (Layout.alloc l ~name:"rt.flag.x" ~words:3);
  ignore (Layout.alloc l ~name:"app.buf" ~words:40);
  ignore (Layout.alloc l ~name:"rt.flag.y" ~words:2);
  checki "rt words" 5 (Layout.used_matching l ~prefix:"rt.");
  checki "app words" 40 (Layout.used_matching l ~prefix:"app.")

(* {1 Memory} *)

let test_memory_rw () =
  let m = Memory.create Fram ~words:16 in
  Memory.write m 3 42;
  checki "read back" 42 (Memory.read m 3);
  checki "reads counted" 1 (Memory.reads m);
  checki "writes counted" 1 (Memory.writes m)

let test_memory_bounds () =
  let m = Memory.create Sram ~words:4 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Memory.read: address 4 out of bounds for SRAM[4]") (fun () ->
      ignore (Memory.read m 4))

let test_memory_blit_overlap () =
  let m = Memory.create Fram ~words:8 in
  for i = 0 to 7 do
    Memory.write m i i
  done;
  Memory.blit ~src:m ~src_addr:0 ~dst:m ~dst_addr:2 ~words:4;
  checki "overlap like Array.blit" 0 (Memory.read m 2);
  checki "overlap like Array.blit" 3 (Memory.read m 5)

let test_memory_snapshot_restore () =
  let m = Memory.create Fram ~words:8 in
  Memory.write m 1 11;
  let snap = Memory.snapshot m in
  Memory.write m 1 99;
  Memory.restore m snap;
  checki "restored" 11 (Memory.read m 1)

(* The resident prefix may end past the last written word but never
   past the nominal size, even when that size is not a whole page. *)
let test_memory_bounds_partial_page () =
  let m = Memory.create Fram ~words:100 in
  Memory.write m 70 5;
  Memory.write m 99 6;
  checki "last word" 6 (Memory.read m 99);
  Alcotest.check_raises "read past size"
    (Invalid_argument "Memory.read: address 100 out of bounds for FRAM[100]") (fun () ->
      ignore (Memory.read m 100));
  Alcotest.check_raises "write past size"
    (Invalid_argument "Memory.write: address 100 out of bounds for FRAM[100]") (fun () ->
      Memory.write m 100 1);
  let img = Memory.snapshot m in
  Alcotest.check_raises "image past size" (Invalid_argument "Memory.image_get: out of bounds")
    (fun () -> ignore (Memory.image_get img 100))

let test_memory_hash_ignores_resident_length () =
  let a = Memory.create Fram ~words:4096 and b = Memory.create Fram ~words:4096 in
  Memory.write a 10 7;
  Memory.write a 3000 5;
  Memory.write a 3000 0;
  Memory.write b 10 7;
  checki "equal contents, equal hash"
    (Memory.image_hash (Memory.snapshot b))
    (Memory.image_hash (Memory.snapshot a));
  Memory.write b 11 1;
  checkb "different contents" true
    (Memory.image_hash (Memory.snapshot a) <> Memory.image_hash (Memory.snapshot b))

(* Model property: every operation on a memory matches the same
   operation on a flat [int array] of the nominal size — values, access
   counters, exceptions and their messages, and the pages each snapshot
   reports as copied (every nominal page on a full capture, the dirty
   pages after). Two memories let blits cross spaces and overlap within
   one; addresses cluster around page boundaries and the nominal end so
   ranges straddle the resident end. *)

type mem_op =
  | Read of int * int
  | Write of int * int * int
  | Blit of int * int * int * int * int  (** src, src_addr, dst, dst_addr, words *)
  | Load of int * int * int array
  | Clear_prefix of int * int
  | Capture of int
  | Restore of int * int  (** memory, image index *)
  | Image_get of int * int  (** image index, addr *)
  | Untrack of int

let show_mem_op = function
  | Read (i, a) -> Printf.sprintf "read m%d %d" i a
  | Write (i, a, v) -> Printf.sprintf "write m%d %d %d" i a v
  | Blit (s, sa, d, da, w) -> Printf.sprintf "blit m%d %d -> m%d %d x%d" s sa d da w
  | Load (i, a, vs) -> Printf.sprintf "load m%d %d x%d" i a (Array.length vs)
  | Clear_prefix (i, w) -> Printf.sprintf "clear_prefix m%d %d" i w
  | Capture i -> Printf.sprintf "snapshot m%d" i
  | Restore (i, k) -> Printf.sprintf "restore m%d img%d" i k
  | Image_get (k, a) -> Printf.sprintf "image_get img%d %d" k a
  | Untrack i -> Printf.sprintf "untrack m%d" i

type mem_model = {
  space : Memory.space;
  cells : int array;
  mutable m_reads : int;
  mutable m_writes : int;
  mutable based : bool;  (* a snapshot or restore set a copy-on-write base *)
  dirty : (int, unit) Hashtbl.t;  (* pages stored to since that base *)
}

let model_pages words = (words + 63) / 64

let model_check mm op addr =
  if addr < 0 || addr >= Array.length mm.cells then
    invalid_arg
      (Printf.sprintf "Memory.%s: address %d out of bounds for %s[%d]" op addr
         (Memory.space_to_string mm.space) (Array.length mm.cells))

let model_mark mm addr words =
  if mm.based && words > 0 then
    for p = addr / 64 to (addr + words - 1) / 64 do
      Hashtbl.replace mm.dirty p ()
    done

let mem_op_gen sizes =
  let open QCheck.Gen in
  let mem = int_range 0 (Array.length sizes - 1) in
  let addr i =
    let n = sizes.(i) in
    frequency
      [
        (4, int_range 0 (n - 1));
        ( 3,
          let* p = int_range 0 (model_pages n) and* d = int_range (-2) 2 in
          return ((p * 64) + d) );
        (2, map (fun d -> n + d) (int_range (-3) 1));
        (1, int_range (-2) (-1));
      ]
  in
  let value = frequency [ (2, return 0); (5, int_range (-5) 1000) ] in
  let words = frequency [ (6, int_range 1 40); (2, int_range 41 200); (1, int_range (-1) 0) ] in
  frequency
    [
      (4, let* i = mem in map (fun a -> Read (i, a)) (addr i));
      (6, let* i = mem in map2 (fun a v -> Write (i, a, v)) (addr i) value);
      ( 3,
        let* s = mem and* d = mem in
        let* sa = addr s and* da = addr d and* w = words in
        return (Blit (s, sa, d, da, w)) );
      ( 2,
        let* i = mem in
        let* a = addr i and* vs = array_size (int_range 0 70) value in
        return (Load (i, a, vs)) );
      ( 1,
        let* i = mem in
        map (fun w -> Clear_prefix (i, w)) (oneof [ addr i; int_range 0 sizes.(i) ]) );
      (3, map (fun i -> Capture i) mem);
      (2, map2 (fun i k -> Restore (i, k)) mem nat);
      (2, let* k = nat in map (fun a -> Image_get (k, a)) (addr 0));
      (1, map (fun i -> Untrack i) mem);
    ]

let mem_case_gen =
  let open QCheck.Gen in
  let size = oneofl [ 1; 5; 63; 64; 65; 100; 127; 128; 130; 256; 300; 640 ] in
  let* sizes = map2 (fun a b -> [| a; b |]) size size in
  map (fun ops -> (sizes, ops)) (list_size (int_range 1 60) (mem_op_gen sizes))

let outcome f = match f () with v -> Ok v | exception e -> Error e

(* [dot] against the per-word loop it replaces, on one memory: equal
   sums and equal [reads] advances. Stores land in the first third, so
   the resident prefix often ends inside a range (or is empty); lengths
   include 0, negatives and ranges past the end, where both must
   raise. *)
let dot_case_gen =
  let open QCheck.Gen in
  let* size = oneofl [ 1; 5; 63; 64; 65; 100; 200; 640 ] in
  let* stores = list_size (int_range 0 20) (pair (int_bound (size / 3)) int) in
  let* a = int_bound (size - 1) in
  let* b = int_bound (size - 1) in
  let room = size - max a b in
  let* len = oneof [ return 0; int_range (-3) (-1); int_range 1 room; int_range room (room + 3) ] in
  return (size, stores, a, b, len)

let prop_memory_dot_matches_reads =
  QCheck.Test.make ~count:500 ~name:"Memory.dot = per-word read loop, sum and reads"
    (QCheck.make
       ~print:(fun (size, stores, a, b, len) ->
         Printf.sprintf "size %d, %d stores, a=%d b=%d len=%d" size (List.length stores) a b len)
       dot_case_gen)
    (fun (size, stores, a, b, len) ->
      let t = Memory.create Memory.Sram ~words:size in
      List.iter (fun (addr, v) -> Memory.write t addr v) stores;
      let r0 = Memory.reads t in
      let dot = outcome (fun () -> Memory.dot t a b len) in
      let r1 = Memory.reads t in
      let loop =
        outcome (fun () ->
            let acc = ref 0 in
            for i = 0 to len - 1 do
              acc := !acc + (Memory.read t (a + i) * Memory.read t (b + i))
            done;
            !acc)
      in
      let r2 = Memory.reads t in
      match (dot, loop) with
      | Ok x, Ok y -> x = y && r1 - r0 = r2 - r1
      | Error (Invalid_argument _), Error (Invalid_argument _) -> r1 = r0
      | _ -> false)

let prop_memory_matches_model =
  QCheck.Test.make ~count:500 ~name:"memory matches a flat-array model"
    (QCheck.make
       ~print:(fun (sizes, ops) ->
         Printf.sprintf "sizes %d,%d: %s" sizes.(0) sizes.(1)
           (String.concat "; " (List.map show_mem_op ops)))
       ~shrink:(fun (sizes, ops) -> QCheck.Iter.map (fun ops -> (sizes, ops)) (QCheck.Shrink.list ops))
       mem_case_gen)
    (fun (sizes, ops) ->
      let spaces = [| Memory.Fram; Memory.Sram |] in
      let mems = Array.init 2 (fun i -> Memory.create spaces.(i) ~words:sizes.(i)) in
      let models =
        Array.init 2 (fun i ->
            {
              space = spaces.(i);
              cells = Array.make sizes.(i) 0;
              m_reads = 0;
              m_writes = 0;
              based = false;
              dirty = Hashtbl.create 8;
            })
      in
      (* (contents, image) per snapshot, oldest first *)
      let images = ref [||] in
      let nth_image k = (!images).(k mod Array.length !images) in
      let step op =
        let real, model =
          match op with
          | Read (i, a) ->
              ( outcome (fun () -> Memory.read mems.(i) a),
                outcome (fun () ->
                    let mm = models.(i) in
                    model_check mm "read" a;
                    mm.m_reads <- mm.m_reads + 1;
                    mm.cells.(a)) )
          | Write (i, a, v) ->
              ( outcome (fun () -> Memory.write mems.(i) a v; 0),
                outcome (fun () ->
                    let mm = models.(i) in
                    model_check mm "write" a;
                    mm.m_writes <- mm.m_writes + 1;
                    mm.cells.(a) <- v;
                    model_mark mm a 1;
                    0) )
          | Blit (s, sa, d, da, w) ->
              ( outcome (fun () ->
                    Memory.blit ~src:mems.(s) ~src_addr:sa ~dst:mems.(d) ~dst_addr:da ~words:w;
                    0),
                outcome (fun () ->
                    let src = models.(s) and dst = models.(d) in
                    if w < 0 then invalid_arg "Memory.blit: negative length";
                    if w > 0 then begin
                      model_check src "blit" sa;
                      model_check src "blit" (sa + w - 1);
                      model_check dst "blit" da;
                      model_check dst "blit" (da + w - 1);
                      Array.blit src.cells sa dst.cells da w;
                      src.m_reads <- src.m_reads + w;
                      dst.m_writes <- dst.m_writes + w;
                      model_mark dst da w
                    end;
                    0) )
          | Load (i, a, vs) ->
              ( outcome (fun () -> Memory.load mems.(i) a vs; 0),
                outcome (fun () ->
                    let mm = models.(i) and w = Array.length vs in
                    if w > 0 then begin
                      model_check mm "load" a;
                      model_check mm "load" (a + w - 1);
                      Array.blit vs 0 mm.cells a w;
                      mm.m_writes <- mm.m_writes + w;
                      model_mark mm a w
                    end;
                    0) )
          | Clear_prefix (i, w) ->
              ( outcome (fun () -> Memory.clear_prefix mems.(i) w; 0),
                outcome (fun () ->
                    let mm = models.(i) in
                    if w < 0 || w > Array.length mm.cells then invalid_arg "Memory.clear_prefix";
                    Array.fill mm.cells 0 w 0;
                    model_mark mm 0 w;
                    0) )
          | Capture i ->
              let img = Memory.snapshot mems.(i) in
              let mm = models.(i) in
              let copied =
                if mm.based then Hashtbl.length mm.dirty
                else model_pages (Array.length mm.cells)
              in
              mm.based <- true;
              Hashtbl.reset mm.dirty;
              images := Array.append !images [| (Array.copy mm.cells, img) |];
              (Ok (Memory.image_copied img), Ok copied)
          | Restore (_, _) when Array.length !images = 0 -> (Ok 0, Ok 0)
          | Restore (i, k) ->
              let contents, img = nth_image k in
              ( outcome (fun () -> Memory.restore mems.(i) img; 0),
                outcome (fun () ->
                    let mm = models.(i) in
                    if Array.length contents <> Array.length mm.cells then
                      invalid_arg "Memory.restore: size mismatch";
                    Array.blit contents 0 mm.cells 0 (Array.length contents);
                    mm.based <- true;
                    Hashtbl.reset mm.dirty;
                    0) )
          | Image_get (_, _) when Array.length !images = 0 -> (Ok 0, Ok 0)
          | Image_get (k, a) ->
              let contents, img = nth_image k in
              ( outcome (fun () -> Memory.image_get img a),
                outcome (fun () ->
                    if a < 0 || a >= Array.length contents then
                      invalid_arg "Memory.image_get: out of bounds";
                    contents.(a)) )
          | Untrack i ->
              Memory.untrack mems.(i);
              models.(i).based <- false;
              Hashtbl.reset models.(i).dirty;
              (Ok 0, Ok 0)
        in
        let show = function
          | Ok v -> string_of_int v
          | Error e -> Printexc.to_string e
        in
        if real <> model then
          QCheck.Test.fail_reportf "%s: got %s, model %s" (show_mem_op op) (show real) (show model);
        Array.iteri
          (fun i mm ->
            if Memory.reads mems.(i) <> mm.m_reads || Memory.writes mems.(i) <> mm.m_writes then
              QCheck.Test.fail_reportf "%s: counters of m%d differ" (show_mem_op op) i)
          models
      in
      List.iter step ops;
      Array.iteri
        (fun i mm ->
          Array.iteri
            (fun a v ->
              if Memory.read mems.(i) a <> v then
                QCheck.Test.fail_reportf "final m%d[%d] differs" i a)
            mm.cells)
        models;
      Array.iter
        (fun (ca, ia) ->
          Array.iter
            (fun (cb, ib) ->
              if ca = cb && Memory.image_hash ia <> Memory.image_hash ib then
                QCheck.Test.fail_report "equal images hash differently")
            !images)
        !images;
      true)

let test_machine_create_is_lazy () =
  let before = Gc.allocated_bytes () in
  let m = Machine.create () in
  let allocated = Gc.allocated_bytes () -. before in
  checkb (Printf.sprintf "create allocated %.0f bytes" allocated) true (allocated < 16_384.);
  let copied sn =
    Memory.image_copied (Machine.snapshot_fram sn) + Memory.image_copied (Machine.snapshot_sram sn)
  in
  checki "first capture counts every nominal page" (2_048 + 64) (copied (Machine.snapshot m));
  Memory.write (Machine.mem m Memory.Fram) 100_000 3;
  checki "then only the dirty page" 1 (copied (Machine.snapshot m))

(* {1 Capacitor} *)

let test_capacitor_drain_dead () =
  let c = Capacitor.create ~capacity_nj:100. ~on_level_nj:60. in
  checkb "full start" true (Capacitor.ready c);
  (match Capacitor.drain c 99. with `Ok -> () | `Dead -> Alcotest.fail "should survive");
  (match Capacitor.drain c 2. with `Dead -> () | `Ok -> Alcotest.fail "should die");
  check (Alcotest.float 0.001) "clamped" 0. (Capacitor.level c)

let test_capacitor_harvest_saturates () =
  let c = Capacitor.create ~capacity_nj:100. ~on_level_nj:60. in
  ignore (Capacitor.drain c 50.);
  Capacitor.harvest c 1000.;
  check (Alcotest.float 0.001) "saturated" 100. (Capacitor.level c)

(* {1 Harvester} *)

let test_rf_decays_with_distance () =
  let near = Harvester.rf ~distance_inch:52. () in
  let far = Harvester.rf ~distance_inch:64. () in
  checkb "closer harvests more" true (Harvester.power near 0 > Harvester.power far 0)

let test_harvester_energy_integration () =
  let h = Harvester.constant 2.0 in
  check (Alcotest.float 0.001) "linear" 2000. (Harvester.energy h ~at:0 ~dur:1000)

let test_harvester_time_to_harvest () =
  let h = Harvester.constant 4.0 in
  (match Harvester.time_to_harvest h ~at:0 ~nj:100. with
  | Some t -> checki "25us" 25 t
  | None -> Alcotest.fail "should harvest");
  match Harvester.time_to_harvest (Harvester.constant 0.) ~at:0 ~nj:1. with
  | None -> ()
  | Some _ -> Alcotest.fail "dead source"

let test_trace_harvester_loops () =
  let h = Harvester.trace ~period_us:10 [| 1.0; 3.0 |] in
  check (Alcotest.float 0.001) "sample 0" 1.0 (Harvester.power h 5);
  check (Alcotest.float 0.001) "sample 1" 3.0 (Harvester.power h 15);
  check (Alcotest.float 0.001) "wraps" 1.0 (Harvester.power h 25)

(* {1 World} *)

let test_world_deterministic () =
  let a = World.create ~seed:5 () and b = World.create ~seed:5 () in
  for t = 0 to 50 do
    let at = t * 997 in
    checki "same temp" (World.temperature_dc a at) (World.temperature_dc b at)
  done

let test_world_varies_over_time () =
  let w = World.create () in
  let vals = List.init 50 (fun i -> World.temperature_dc w (i * 3_000)) in
  checkb "not constant" true (List.exists (fun v -> v <> List.hd vals) vals)

let test_world_humidity_range () =
  let w = World.create () in
  for t = 0 to 200 do
    let h = World.humidity_pct w (t * 1_111) in
    checkb "0..100" true (h >= 0 && h <= 100)
  done

(* {1 Machine} *)

let test_machine_charge_advances_time () =
  let m = Machine.create () in
  Machine.cpu m 100;
  checki "100 cycles = 100us" 100 (Machine.now m)

let test_machine_accounting_tags () =
  let m = Machine.create () in
  Machine.cpu m 10;
  Machine.with_tag m Machine.Overhead (fun () -> Machine.cpu m 5);
  let a = Machine.take_attempt m in
  checki "app" 10 a.Machine.app_us;
  checki "ovh" 5 a.Machine.ovh_us;
  let a2 = Machine.take_attempt m in
  checki "buckets reset" 0 a2.Machine.app_us

let test_machine_memory_charged () =
  let m = Machine.create () in
  let addr = Machine.alloc m Memory.Fram ~name:"x" ~words:1 in
  Machine.write m Memory.Fram addr 7;
  checki "written" 7 (Machine.read m Memory.Fram addr);
  checkb "time charged" true (Machine.now m > 0)

let test_timer_failure_fires () =
  let m =
    Machine.create ~seed:11
      ~failure:(Failure.Timer { on_min_us = 100; on_max_us = 200; off_min_us = 10; off_max_us = 20 })
      ()
  in
  Machine.boot m;
  match
    for _ = 1 to 1000 do
      Machine.cpu m 1
    done
  with
  | () -> Alcotest.fail "should have failed within 200us"
  | exception Machine.Power_failure -> checkb "died within window" true (Machine.now m <= 200)

let test_reboot_clears_sram_keeps_fram () =
  let m =
    Machine.create
      ~failure:(Failure.Timer { on_min_us = 50; on_max_us = 60; off_min_us = 5; off_max_us = 5 })
      ()
  in
  Machine.boot m;
  let f = Machine.alloc m Memory.Fram ~name:"f" ~words:1 in
  let s = Machine.alloc m Memory.Sram ~name:"s" ~words:1 in
  (try
     Machine.write m Memory.Fram f 42;
     Machine.write m Memory.Sram s 43;
     for _ = 1 to 100 do
       Machine.cpu m 1
     done
   with Machine.Power_failure -> ());
  Machine.reboot m;
  checki "fram survives" 42 (Machine.read m Memory.Fram f);
  checki "sram cleared" 0 (Machine.read m Memory.Sram s);
  checki "failure counted" 1 (Machine.failures m)

let test_energy_driven_failure_and_recharge () =
  let m =
    Machine.create ~failure:Failure.Energy_driven
      ~capacitor:(Capacitor.create ~capacity_nj:500. ~on_level_nj:400.)
      ~harvester:(Harvester.constant 0.1) ()
  in
  Machine.boot m;
  (match
     for _ = 1 to 10_000 do
       Machine.cpu m 1
     done
   with
  | () -> Alcotest.fail "capacitor should empty"
  | exception Machine.Power_failure -> ());
  let before = Machine.now m in
  Machine.reboot m;
  checkb "recharge takes time" true (Machine.now m > before);
  checkb "ready after reboot" true (Capacitor.ready (Machine.capacitor m))

let test_machine_events () =
  let m = Machine.create () in
  Machine.bump m "io:Temp";
  Machine.bump m "io:Temp";
  checki "counted" 2 (Machine.event m "io:Temp");
  checki "absent is 0" 0 (Machine.event m "io:Nope")

let test_timekeeper_monotonic () =
  let m = Machine.create () in
  let t1 = Timekeeper.read m in
  Machine.cpu m 500;
  let t2 = Timekeeper.read m in
  checkb "monotonic" true (t2 >= t1);
  checki "quantized" 0 (t2 mod Timekeeper.resolution_us)

let prop_timer_failure_within_window =
  QCheck.Test.make ~name:"timer failure always lands in [on_min,on_max]" ~count:100
    QCheck.small_int (fun seed ->
      let m =
        Machine.create ~seed
          ~failure:
            (Failure.Timer { on_min_us = 5_000; on_max_us = 20_000; off_min_us = 1; off_max_us = 1 })
          ()
      in
      Machine.boot m;
      match
        for _ = 1 to 100_000 do
          Machine.cpu m 1
        done
      with
      | () -> false
      | exception Machine.Power_failure -> Machine.now m >= 5_000 && Machine.now m <= 20_000)

(* Invariant: attempt buckets account for exactly the machine's total
   consumption, whatever mix of tags/ops ran. *)
let prop_attempt_buckets_conserve_energy =
  QCheck.Test.make ~name:"attempt buckets conserve energy and time" ~count:200
    QCheck.(pair small_int (small_list (int_bound 2)))
    (fun (seed, ops) ->
      let m = Machine.create ~seed () in
      let acc_us = ref 0 and acc_nj = ref 0. in
      let flush () =
        let a = Machine.take_attempt m in
        acc_us := !acc_us + a.Machine.app_us + a.Machine.ovh_us;
        acc_nj := !acc_nj +. a.Machine.app_nj +. a.Machine.ovh_nj
      in
      List.iter
        (fun op ->
          match op with
          | 0 -> Machine.cpu m 7
          | 1 -> Machine.with_tag m Machine.Overhead (fun () -> Machine.charge m ~us:3 ~pj:2_500)
          | _ -> flush ())
        ops;
      flush ();
      abs_float (!acc_nj -. Machine.energy_used_nj m) < 1e-6 && !acc_us = Machine.now m)

let prop_world_bucketed_noise_is_stable =
  QCheck.Test.make ~name:"world readings are pure functions of time" ~count:200
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, at) ->
      let w = World.create ~seed () in
      World.temperature_dc w at = World.temperature_dc w at
      && World.image_pixel w at 3 = World.image_pixel w at 3)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "platform"
    [
      ( "rng",
        [
          tc "deterministic" `Quick test_rng_deterministic;
          tc "bounds" `Quick test_rng_bounds;
          tc "split independent" `Quick test_rng_split_independent;
          QCheck_alcotest.to_alcotest prop_rng_float_bounds;
        ] );
      ( "layout",
        [
          tc "alloc" `Quick test_layout_alloc;
          tc "exhaustion" `Quick test_layout_exhaustion;
          tc "prefix accounting" `Quick test_layout_prefix_accounting;
        ] );
      ( "memory",
        [
          tc "read/write" `Quick test_memory_rw;
          tc "bounds" `Quick test_memory_bounds;
          tc "blit overlap" `Quick test_memory_blit_overlap;
          tc "snapshot/restore" `Quick test_memory_snapshot_restore;
          tc "bounds past a partial page" `Quick test_memory_bounds_partial_page;
          tc "hash ignores resident length" `Quick test_memory_hash_ignores_resident_length;
          QCheck_alcotest.to_alcotest prop_memory_matches_model;
          QCheck_alcotest.to_alcotest prop_memory_dot_matches_reads;
        ] );
      ( "capacitor",
        [
          tc "drain to death" `Quick test_capacitor_drain_dead;
          tc "harvest saturates" `Quick test_capacitor_harvest_saturates;
        ] );
      ( "harvester",
        [
          tc "rf decays with distance" `Quick test_rf_decays_with_distance;
          tc "energy integration" `Quick test_harvester_energy_integration;
          tc "time to harvest" `Quick test_harvester_time_to_harvest;
          tc "trace loops" `Quick test_trace_harvester_loops;
        ] );
      ( "world",
        [
          tc "deterministic" `Quick test_world_deterministic;
          tc "varies over time" `Quick test_world_varies_over_time;
          tc "humidity in range" `Quick test_world_humidity_range;
        ] );
      ( "machine",
        [
          tc "charge advances time" `Quick test_machine_charge_advances_time;
          tc "accounting tags" `Quick test_machine_accounting_tags;
          tc "memory charged" `Quick test_machine_memory_charged;
          tc "timer failure fires" `Quick test_timer_failure_fires;
          tc "reboot clears sram keeps fram" `Quick test_reboot_clears_sram_keeps_fram;
          tc "energy-driven failure and recharge" `Quick test_energy_driven_failure_and_recharge;
          tc "events" `Quick test_machine_events;
          tc "timekeeper monotonic" `Quick test_timekeeper_monotonic;
          tc "create allocates no memory image" `Quick test_machine_create_is_lazy;
          QCheck_alcotest.to_alcotest prop_timer_failure_within_window;
          QCheck_alcotest.to_alcotest prop_attempt_buckets_conserve_energy;
          QCheck_alcotest.to_alcotest prop_world_bucketed_noise_is_stable;
        ] );
    ]
