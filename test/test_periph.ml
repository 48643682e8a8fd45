(* Tests for the peripheral models: DMA, LEA, sensors, radio, camera. *)

open Platform
open Periph

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let machine ?failure () =
  match failure with None -> Machine.create () | Some f -> Machine.create ~failure:f ()

(* {1 DMA} *)

let test_dma_copies_data () =
  let m = machine () in
  let src = Machine.alloc m Memory.Fram ~name:"src" ~words:32 in
  let dst = Machine.alloc m Memory.Sram ~name:"dst" ~words:32 in
  for i = 0 to 31 do
    Memory.write (Machine.mem m Memory.Fram) (src + i) (i * i)
  done;
  Dma.copy m ~src:(Loc.fram src) ~dst:(Loc.sram dst) ~words:32;
  for i = 0 to 31 do
    checki "copied" (i * i) (Memory.read (Machine.mem m Memory.Sram) (dst + i))
  done;
  checki "one io event" 1 (Machine.event m "io:DMA")

let test_dma_charges_time () =
  let m = machine () in
  let src = Machine.alloc m Memory.Fram ~name:"src" ~words:100 in
  let dst = Machine.alloc m Memory.Fram ~name:"dst" ~words:100 in
  Dma.copy m ~src:(Loc.fram src) ~dst:(Loc.fram dst) ~words:100;
  (* setup 8us + 100 words * 1us *)
  checki "time" 108 (Machine.now m)

let test_dma_partial_on_failure () =
  (* a transfer interrupted by the failure timer must leave a prefix of
     the data copied — the hardware behaviour that makes re-executed DMA
     dangerous *)
  let m =
    machine
      ~failure:(Failure.Timer { on_min_us = 40; on_max_us = 60; off_min_us = 1; off_max_us = 1 })
      ()
  in
  Machine.boot m;
  let src = Machine.alloc m Memory.Fram ~name:"src" ~words:200 in
  let dst = Machine.alloc m Memory.Fram ~name:"dst" ~words:200 in
  for i = 0 to 199 do
    Memory.write (Machine.mem m Memory.Fram) (src + i) 7
  done;
  (match Dma.copy m ~src:(Loc.fram src) ~dst:(Loc.fram dst) ~words:200 with
  | () -> Alcotest.fail "should be interrupted"
  | exception Machine.Power_failure -> ());
  let fram = Machine.mem m Memory.Fram in
  let copied = ref 0 in
  for i = 0 to 199 do
    if Memory.read fram (dst + i) = 7 then incr copied
  done;
  checkb "partial prefix" true (!copied > 0 && !copied < 200);
  checki "chunk aligned" 0 (!copied mod Dma.chunk_words);
  checki "started transfer counted" 1 (Machine.event m "io:DMA")

(* {1 LEA} *)

let test_lea_vector_mac () =
  let m = machine () in
  let a = Lea.alloc_leram m ~name:"a" ~words:4 in
  let b = Lea.alloc_leram m ~name:"b" ~words:4 in
  let sram = Machine.mem m Memory.Sram in
  List.iteri (fun i v -> Memory.write sram (a + i) v) [ 1; 2; 3; 4 ];
  List.iteri (fun i v -> Memory.write sram (b + i) v) [ 5; 6; 7; 8 ];
  checki "dot product" 70 (Lea.vector_mac m ~a ~b ~len:4)

let test_lea_fir () =
  let m = machine () in
  let input = Lea.alloc_leram m ~name:"in" ~words:6 in
  let coeffs = Lea.alloc_leram m ~name:"c" ~words:3 in
  let output = Lea.alloc_leram m ~name:"out" ~words:4 in
  let sram = Machine.mem m Memory.Sram in
  List.iteri (fun i v -> Memory.write sram (input + i) v) [ 1; 1; 1; 1; 1; 1 ];
  List.iteri (fun i v -> Memory.write sram (coeffs + i) v) [ 1; 2; 3 ];
  Lea.fir m ~input ~coeffs ~taps:3 ~output ~samples:4;
  for i = 0 to 3 do
    checki "moving sum" 6 (Memory.read sram (output + i))
  done

let test_lea_rejects_fram_addresses () =
  let m = machine () in
  Alcotest.check_raises "oob operand"
    (Invalid_argument "Lea.vector_mac: operand [4090,4100) outside SRAM") (fun () ->
      ignore (Lea.vector_mac m ~a:4090 ~b:0 ~len:10))

let test_lea_vector_max () =
  let m = machine () in
  let a = Lea.alloc_leram m ~name:"v" ~words:5 in
  let sram = Machine.mem m Memory.Sram in
  List.iteri (fun i v -> Memory.write sram (a + i) v) [ 3; 9; 1; 9; 2 ];
  checki "argmax (first)" 1 (Lea.vector_max m ~a ~len:5)

let test_lea_shift_scaling () =
  let m = machine () in
  let a = Lea.alloc_leram m ~name:"a" ~words:2 in
  let b = Lea.alloc_leram m ~name:"b" ~words:2 in
  let sram = Machine.mem m Memory.Sram in
  Memory.write sram a 1024;
  Memory.write sram (a + 1) 1024;
  Memory.write sram b 2048;
  Memory.write sram (b + 1) 2048;
  checki "q15-style shift" ((1024 * 2048 * 2) asr 15) (Lea.vector_mac ~shift:15 m ~a ~b ~len:2)

(* {2 Per-word oracle}

   The reference the LEA's range kernels must match: the same command
   accounting (one ["io:LEA"] bump, setup and per-element charges) and
   one bounds-checked [Memory.read] per operand word. *)
module Per_word = struct
  let start m elements =
    let c = Machine.cost m in
    Machine.bump m "io:LEA";
    Machine.charge_op m c.Cost.lea_setup 1;
    Machine.charge_op m c.Cost.lea_element elements

  let vector_mac ~shift m ~a ~b ~len =
    start m len;
    let sram = Machine.mem m Memory.Sram in
    let acc = ref 0 in
    for i = 0 to len - 1 do
      acc := !acc + (Memory.read sram (a + i) * Memory.read sram (b + i))
    done;
    !acc asr shift

  let fir ~shift m ~input ~coeffs ~taps ~output ~samples =
    start m (samples * taps);
    let sram = Machine.mem m Memory.Sram in
    for i = 0 to samples - 1 do
      let acc = ref 0 in
      for j = 0 to taps - 1 do
        acc := !acc + (Memory.read sram (input + i + j) * Memory.read sram (coeffs + j))
      done;
      Memory.write sram (output + i) (!acc asr shift)
    done
end

type lea_case = {
  fills : (int * int) list;  (** (offset, value) stores into the buffer *)
  mac : bool;  (** vector_mac, else fir *)
  a : int;  (** mac [a] / fir input *)
  b : int;  (** mac [b] / fir coeffs *)
  out : int;  (** fir output; may overlap the input *)
  len : int;  (** mac length / fir taps *)
  samples : int;
  shift : int;
}

(* Operands inside a 256-word LEA-RAM buffer, its words stored only
   below offset 96, so ranges often run past the SRAM's resident
   prefix. *)
let lea_case_gen =
  let open QCheck.Gen in
  let* fills = list_size (int_range 0 40) (pair (int_bound 95) (int_range (-40_000) 40_000)) in
  let* mac = bool in
  let* a = int_bound 200 in
  let* b = int_bound 200 in
  let* out = int_bound 200 in
  let* len = int_range 0 24 in
  let* samples = int_range 0 30 in
  let* shift = int_bound 15 in
  return { fills; mac; a; b; out; len; samples; shift }

let prop_lea_matches_per_word =
  QCheck.Test.make ~count:300 ~name:"Lea.fir and vector_mac match the per-word oracle"
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "%s a=%d b=%d out=%d len=%d samples=%d shift=%d fills=%d"
           (if c.mac then "mac" else "fir") c.a c.b c.out c.len c.samples c.shift
           (List.length c.fills))
       lea_case_gen)
    (fun c ->
      let run mac fir =
        let m = machine () in
        let base = Lea.alloc_leram m ~name:"buf" ~words:256 in
        let sram = Machine.mem m Memory.Sram in
        List.iter (fun (off, v) -> Memory.write sram (base + off) v) c.fills;
        let result =
          if c.mac then mac m ~a:(base + c.a) ~b:(base + c.b) ~len:c.len
          else begin
            fir m ~input:(base + c.a) ~coeffs:(base + c.b) ~taps:c.len ~output:(base + c.out)
              ~samples:c.samples;
            0
          end
        in
        let counters = (Memory.reads sram, Memory.writes sram) in
        let machine =
          (Machine.charges m, Machine.now m, Machine.energy_used_nj m, Machine.events m)
        in
        (result, counters, machine, Array.init 256 (fun i -> Memory.read sram (base + i)))
      in
      run (Lea.vector_mac ~shift:c.shift) (Lea.fir ~shift:c.shift)
      = run (Per_word.vector_mac ~shift:c.shift) (Per_word.fir ~shift:c.shift))

(* {1 Sensors} *)

let test_sensor_reads_world () =
  let m = machine () in
  let v = Sensors.temperature_dc m in
  let expected = World.temperature_dc (Machine.world m) (Machine.now m) in
  checki "world sample at completion time" expected v;
  checki "event" 1 (Machine.event m "io:Temp")

let test_sensor_costs_time () =
  let m = machine () in
  ignore (Sensors.temperature_dc m);
  checki "900us" 900 (Machine.now m)

(* {1 Radio} *)

let test_radio_logs_completed_packets () =
  let m = machine () in
  let r = Radio.create m in
  Radio.send r [| 1; 2; 3 |];
  Radio.send r [| 4 |];
  checki "two packets" 2 (Radio.packets_sent r);
  (match Radio.log r with
  | [ (_, p1); (_, p2) ] ->
      checki "payload" 1 p1.(0);
      checki "payload" 4 p2.(0)
  | _ -> Alcotest.fail "expected two packets");
  checki "events" 2 (Machine.event m "io:Send")

let test_radio_interrupted_send_not_logged () =
  let m =
    machine
      ~failure:(Failure.Timer { on_min_us = 100; on_max_us = 150; off_min_us = 1; off_max_us = 1 })
      ()
  in
  Machine.boot m;
  let r = Radio.create m in
  (match Radio.send r (Array.make 100 9) with
  | () -> Alcotest.fail "should be interrupted (preamble alone is 2ms)"
  | exception Machine.Power_failure -> ());
  checki "nothing received" 0 (Radio.packets_sent r);
  checki "attempt counted" 1 (Machine.event m "io:Send")

let test_radio_send_from_memory () =
  let m = machine () in
  let r = Radio.create m in
  let src = Machine.alloc m Memory.Fram ~name:"pkt" ~words:3 in
  List.iteri (fun i v -> Memory.write (Machine.mem m Memory.Fram) (src + i) v) [ 10; 20; 30 ];
  Radio.send_from r ~src:(Loc.fram src) ~words:3;
  match Radio.log r with
  | [ (_, p) ] -> Alcotest.(check (array int)) "payload" [| 10; 20; 30 |] p
  | _ -> Alcotest.fail "one packet expected"

(* {1 Camera} *)

let test_camera_writes_frame () =
  let m = machine () in
  let dst = Machine.alloc m Memory.Sram ~name:"img" ~words:16 in
  Camera.capture m ~dst:(Loc.sram dst) ~pixels:16;
  let sram = Machine.mem m Memory.Sram in
  let nonzero = ref 0 in
  for i = 0 to 15 do
    let px = Memory.read sram (dst + i) in
    checkb "pixel in range" true (px >= 0 && px <= 255);
    if px > 0 then incr nonzero
  done;
  checkb "frame has content" true (!nonzero > 0);
  checki "event" 1 (Machine.event m "io:Capture")

(* {1 Clock reads}

   Every value simulated code derives from the time goes through
   [Machine.clock], whose read count tells a resumed sweep which
   continuations depend on when they ran. Charging and reporting the
   time read none. *)

let test_clock_sources_count_reads () =
  let m = machine () in
  let reads () = Machine.clock_reads m in
  Machine.charge m ~us:10 ~pj:0;
  Machine.idle m 1_000;
  ignore (Machine.now m);
  checki "charge, idle and now read no clock" 0 (reads ());
  ignore (Timekeeper.read m);
  checki "timekeeper" 1 (reads ());
  ignore (Timekeeper.elapsed_since m 0);
  checki "elapsed_since reads the timekeeper" 2 (reads ());
  List.iteri
    (fun i sample ->
      ignore (sample m);
      checki "every sensor reading" (3 + i) (reads ()))
    [ Sensors.temperature_dc; Sensors.humidity_pct; Sensors.pressure_pa10; Sensors.light_lux ];
  let dst = Machine.alloc m Memory.Sram ~name:"img" ~words:4 in
  Camera.capture m ~dst:(Loc.sram dst) ~pixels:4;
  checki "camera frame" 7 (reads ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "periph"
    [
      ( "dma",
        [
          tc "copies data" `Quick test_dma_copies_data;
          tc "charges time" `Quick test_dma_charges_time;
          tc "partial on failure" `Quick test_dma_partial_on_failure;
        ] );
      ( "lea",
        [
          tc "vector mac" `Quick test_lea_vector_mac;
          tc "fir" `Quick test_lea_fir;
          tc "rejects out-of-sram operands" `Quick test_lea_rejects_fram_addresses;
          tc "vector max" `Quick test_lea_vector_max;
          tc "shift scaling" `Quick test_lea_shift_scaling;
          QCheck_alcotest.to_alcotest prop_lea_matches_per_word;
        ] );
      ( "sensors",
        [
          tc "reads world" `Quick test_sensor_reads_world;
          tc "costs time" `Quick test_sensor_costs_time;
        ] );
      ( "radio",
        [
          tc "logs completed packets" `Quick test_radio_logs_completed_packets;
          tc "interrupted send not logged" `Quick test_radio_interrupted_send_not_logged;
          tc "send from memory" `Quick test_radio_send_from_memory;
        ] );
      ("camera", [ tc "writes frame" `Quick test_camera_writes_frame ]);
      ("clock", [ tc "sources count reads" `Quick test_clock_sources_count_reads ]);
    ]
