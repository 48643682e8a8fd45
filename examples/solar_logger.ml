(* Solar logger: trace-driven harvesting. A synthetic "cloudy morning"
   irradiance trace drives the energy model: the device logs sensor
   samples continuously; during bright segments it cruises, during
   cloudy dips the capacitor empties, and the EaseIO annotations keep
   the wasted work bounded while the log stays duplicate-free.

   Run with: dune exec examples/solar_logger.exe *)

open Platform
open Kernel

let samples = 12

(* nJ/us harvested, 50 ms per segment: dawn ramp, clouds, clearing *)
let solar_trace =
  Harvester.trace ~period_us:50_000
    [| 0.3; 0.5; 0.9; 1.4; 0.4; 0.2; 0.1; 0.6; 1.2; 1.8; 2.2; 2.0 |]

let () =
  let capacitor = Capacitor.create ~capacity_nj:30_000. ~on_level_nj:22_000. in
  let machine =
    Machine.create ~seed:7 ~failure:Failure.Energy_driven ~harvester:solar_trace ~capacitor ()
  in
  let rt = Easeio.Runtime.create machine in
  let radio = Periph.Radio.create machine in
  let log = Machine.alloc machine Memory.Fram ~name:"app.log" ~words:samples in
  let cursor = Machine.alloc machine Memory.Fram ~name:"app.cursor" ~words:1 in

  let sample =
    {
      Task.name = "sample";
      body =
        (fun m ->
          let i = Machine.read m Memory.Fram cursor in
          let v =
            Easeio.Runtime.call_io rt ~index:i ~name:"Light"
              ~sem:(Easeio.Semantics.Timely 40_000) (fun m -> Periph.Sensors.light_lux m)
          in
          Machine.write m Memory.Fram (log + i) v;
          (* heavy per-sample processing keeps the duty cycle realistic *)
          Machine.charge m ~us:6_000 ~pj:4_500_000;
          Easeio.Runtime.region rt ~id:1 ~vars:[ (Loc.fram cursor, 1) ] (fun () ->
              Machine.write m Memory.Fram cursor (i + 1));
          if i + 1 < samples then Task.Next "sample" else Task.Next "upload");
    }
  in
  let upload =
    {
      Task.name = "upload";
      body =
        (fun _ ->
          Easeio.Runtime.call_io_unit rt ~name:"Send" ~sem:Easeio.Semantics.Single (fun _ ->
              Periph.Radio.send_from radio ~src:(Loc.fram log) ~words:samples);
          Task.Stop);
    }
  in

  let app = Task.make_app ~name:"solar_logger" ~entry:"sample" [ sample; upload ] in
  let o = Engine.run ~hooks:(Easeio.Runtime.hooks rt) machine app in

  Printf.printf "completed:      %b\n" o.Engine.completed;
  Printf.printf "wall clock:     %.1f ms (including recharge intervals)\n"
    (float_of_int o.Engine.total_time_us /. 1000.);
  Printf.printf "power failures: %d (capacitor exhausted during cloudy dips)\n"
    o.Engine.power_failures;
  Printf.printf "sensor reads:   %d for %d samples\n" (Machine.event machine "io:Light") samples;
  Printf.printf "uploads:        %d\n" (Periph.Radio.packets_sent radio);
  print_string "log: ";
  for i = 0 to samples - 1 do
    Printf.printf "%d " (Machine.read machine Memory.Fram (log + i))
  done;
  print_newline ()
