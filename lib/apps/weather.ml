open Platform
open Kernel

let tasks = 11
let io_functions = 5
let packet_words = 3

(* Non-volatile application state shared by the tasks. *)
type state = {
  act_stats : int;  (** per-stage activation checksums (one word per stage) *)
  img_mean : int;  (** mean brightness, computed right after capture *)
  count : int;  (** measurement counter (CPU WAR: privatized by baselines) *)
  temp_v : int;
  humd_v : int;
  packet : int;  (** 3 words: temp, humd, class *)
  valid : int;  (** set by the validate task *)
}

let alloc_state m =
  let a name words = Machine.alloc m Memory.Fram ~name:("weather." ^ name) ~words in
  {
    act_stats = a "act_stats" Dnn.Network.layer_count;
    img_mean = a "img_mean" 1;
    count = a "count" 1;
    temp_v = a "temp_v" 1;
    humd_v = a "humd_v" 1;
    packet = a "packet" packet_words;
    valid = a "valid" 1;
  }

(* The runtime-specific plumbing each flavor provides to the task bodies. *)
type plumbing = {
  mover : Dnn.Layers.mover;
  sense : Machine.t -> state -> unit;
  capture : Machine.t -> Dnn.Network.t -> unit;
  send : Machine.t -> Periph.Radio.t -> state -> unit;
  bump_count : Machine.t -> state -> unit;
      (** the measurement counter has a CPU WAR dependence: baselines
          privatize it through the manager, EaseIO protects it with
          regional privatization *)
  end_of_dma_task : Machine.t -> unit;  (** seal point after layer/store DMAs *)
  hooks : Engine.hooks;
  read_nv : Machine.t -> int -> int;  (** charged scalar read through the runtime *)
  write_nv : Machine.t -> int -> int -> unit;
}

let direct_plumbing m mgr_strategy =
  let mgr = Runtimes.Manager.create m mgr_strategy in
  let count_var = Runtimes.Manager.declare ~war:true mgr ~name:"weather.count" ~words:1 in
  {
    bump_count =
      (fun _ _ ->
        Runtimes.Manager.write mgr count_var 0 (Runtimes.Manager.read mgr count_var 0 + 1));
    mover = Dnn.Layers.raw_mover m;
    sense =
      (fun m st ->
        let t = Periph.Sensors.temperature_dc m in
        let h = Periph.Sensors.humidity_pct m in
        ignore (Periph.Sensors.pressure_pa10 m);
        Machine.write m Memory.Fram st.temp_v t;
        Machine.write m Memory.Fram st.humd_v h);
    capture =
      (fun m net ->
        Periph.Camera.capture m ~exposure_us:8_000 ~dst:(Dnn.Network.image_loc net)
          ~pixels:(Dnn.Network.input_dim * Dnn.Network.input_dim));
    send =
      (fun m radio st ->
        Periph.Radio.send_from radio ~src:(Loc.fram st.packet) ~words:packet_words;
        (* listen window for the acknowledgement *)
        Machine.idle m 2_500);
    end_of_dma_task = (fun _ -> ());
    hooks = Runtimes.Manager.hooks mgr;
    read_nv = (fun m a -> Machine.read m Memory.Fram a);
    write_nv = (fun m a v -> Machine.write m Memory.Fram a v);
  }

(* the weather app's NV->volatile fetches need at most ~1 K words of
   privatization buffer (activations + weights staged per layer) *)
let easeio_plumbing m =
  let rt = Easeio.Runtime.create ~priv_buffer_words:1024 m in
  {
    bump_count =
      (fun m st ->
        Easeio.Runtime.region rt ~id:0 ~vars:[ (Loc.fram st.count, 1) ] (fun () ->
            Machine.write m Memory.Fram st.count (Machine.read m Memory.Fram st.count + 1)));
    mover = Dnn.Layers.easeio_mover rt;
    sense =
      (fun m st ->
        (* Fig. 3: the sensing pair is atomic with Single semantics; the
           temperature is Timely (10 ms), the humidity Always *)
        Easeio.Runtime.io_block rt ~name:"sense_blk" ~sem:Easeio.Semantics.Single (fun () ->
            let t =
              Easeio.Runtime.call_io rt ~name:"Temp" ~sem:(Easeio.Semantics.Timely 10_000)
                (fun m -> Periph.Sensors.temperature_dc m)
            in
            ignore
              (Easeio.Runtime.call_io rt ~name:"Pres" ~sem:Easeio.Semantics.Single (fun m ->
                   Periph.Sensors.pressure_pa10 m));
            let h =
              Easeio.Runtime.call_io rt ~name:"Humd" ~sem:Easeio.Semantics.Always (fun m ->
                  Periph.Sensors.humidity_pct m)
            in
            Machine.write m Memory.Fram st.temp_v t;
            Machine.write m Memory.Fram st.humd_v h));
    capture =
      (fun m net ->
        Easeio.Runtime.call_io_unit rt ~name:"Capture" ~sem:Easeio.Semantics.Single (fun m ->
            Periph.Camera.capture m ~exposure_us:8_000 ~dst:(Dnn.Network.image_loc net)
              ~pixels:(Dnn.Network.input_dim * Dnn.Network.input_dim));
        ignore m);
    send =
      (fun m radio st ->
        Easeio.Runtime.call_io_unit rt ~deps:[ "Temp"; "Humd" ] ~name:"Send"
          ~sem:Easeio.Semantics.Single (fun _ ->
            Periph.Radio.send_from radio ~src:(Loc.fram st.packet) ~words:packet_words);
        (* the acknowledgement window must re-open after every reboot *)
        Easeio.Runtime.call_io_unit rt ~name:"AckWindow" ~sem:Easeio.Semantics.Always (fun m ->
            Machine.idle m 2_500);
        ignore m);
    end_of_dma_task = (fun _ -> Easeio.Runtime.seal_dmas rt);
    hooks = Easeio.Runtime.hooks rt;
    read_nv = (fun m a -> Machine.read m Memory.Fram a);
    write_nv = (fun m a v -> Machine.write m Memory.Fram a v);
  }

let build_net ?(buffering = `Double) variant m =
  let pl =
    match (variant : Common.variant) with
    | Common.Alpaca -> direct_plumbing m Runtimes.Manager.Alpaca
    | Common.Ink -> direct_plumbing m Runtimes.Manager.Ink
    | Common.Easeio | Common.Easeio_op -> easeio_plumbing m
  in
  let st = alloc_state m in
  let net = Dnn.Network.create m ~buffering in
  let radio = Periph.Radio.create m in
  let layer_task i name next =
    {
      Task.name;
      body =
        (fun m ->
          Dnn.Network.run_layer m pl.mover net i;
          pl.end_of_dma_task m;
          (* post-store pass: fold the stored activations into a running
             checksum (quantization statistics); the CPU reads the freshly
             DMA-written buffer, which is exactly the access pattern that
             re-executed DMA corrupts when layers share one buffer *)
          let loc, words = Dnn.Network.stage_output net i in
          let acc = ref 0 in
          for j = 0 to words - 1 do
            acc := !acc + Machine.read m loc.Loc.space (loc.Loc.addr + j);
            Machine.cpu m 2
          done;
          (* second pass: dynamic range, used to pick the next layer's
             fixed-point scale *)
          let peak = ref 0 in
          for j = 0 to words - 1 do
            let v = abs (Machine.read m loc.Loc.space (loc.Loc.addr + j)) in
            if v > !peak then peak := v;
            Machine.cpu m 3
          done;
          ignore !peak;
          pl.write_nv m (st.act_stats + i) (!acc land 0xFFFF);
          Task.Next next);
    }
  in
  let app_tasks =
    [
      {
        Task.name = "init";
        body =
          (fun m ->
            pl.bump_count m st;
            pl.write_nv m st.valid 0;
            Task.Next "sense");
      };
      {
        Task.name = "sense";
        body =
          (fun m ->
            pl.sense m st;
            Task.Next "capture");
      };
      {
        Task.name = "capture";
        body =
          (fun m ->
            pl.capture m net;
            (* exposure statistics: mean brightness over the stored
               frame; a failure here makes the baselines re-expose the
               whole frame, while EaseIO restores the Single capture *)
            let img = Dnn.Network.image_loc net in
            let pixels = Dnn.Network.input_dim * Dnn.Network.input_dim in
            let acc = ref 0 in
            for j = 0 to pixels - 1 do
              acc := !acc + Machine.read m img.Loc.space (img.Loc.addr + j);
              Machine.cpu m 2
            done;
            let mean = !acc / pixels in
            let contrast = ref 0 in
            for j = 0 to pixels - 1 do
              contrast := !contrast + abs (Machine.read m img.Loc.space (img.Loc.addr + j) - mean);
              Machine.cpu m 3
            done;
            pl.write_nv m st.img_mean mean;
            Task.Next "conv1");
      };
      layer_task 0 "conv1" "conv2";
      layer_task 1 "conv2" "fc";
      layer_task 2 "fc" "infer";
      layer_task 3 "infer" "pack";
      {
        Task.name = "pack";
        body =
          (fun m ->
            pl.write_nv m st.packet (pl.read_nv m st.temp_v);
            pl.write_nv m (st.packet + 1) (pl.read_nv m st.humd_v);
            pl.write_nv m (st.packet + 2) (Dnn.Network.result m net);
            Task.Next "send");
      };
      {
        Task.name = "send";
        body =
          (fun m ->
            pl.send m radio st;
            Task.Next "validate");
      };
      {
        Task.name = "validate";
        body =
          (fun m ->
            (* lightweight plausibility pass over the packet *)
            let cls = pl.read_nv m (st.packet + 2) in
            pl.write_nv m st.valid (if cls >= 0 && cls < Dnn.Network.classes then 1 else 0);
            Task.Next "finish");
      };
      { Task.name = "finish"; body = (fun _ -> Task.Stop) };
    ]
  in
  let fram = Machine.mem m Memory.Fram in
  (* The bit-exact reference network costs more than the rest of the
     check, and a session's checks mostly see the frame the previous one
     checked, so keep that frame and its result: per app instance, never
     shared across domains. *)
  let last = ref None in
  let check _m =
    let stored_class = Dnn.Network.result m net in
    let image = Dnn.Network.stored_image m net in
    let reference, expected_stats =
      match !last with
      | Some (frame, r) when frame = image -> r
      | _ ->
          let r = Dnn.Network.reference image in
          last := Some (image, r);
          r
    in
    let stats_ok = ref true in
    for i = 0 to Dnn.Network.layer_count - 1 do
      if Memory.read fram (st.act_stats + i) <> expected_stats.(i) then stats_ok := false
    done;
    let packet_ok =
      match Periph.Radio.log radio with
      | [] -> false
      | log ->
          let _, last = List.nth log (List.length log - 1) in
          Array.length last = packet_words
          && last.(0) = Memory.read fram st.temp_v
          && last.(1) = Memory.read fram st.humd_v
          && last.(2) = stored_class
      in
    stored_class = reference && !stats_ok && packet_ok && Memory.read fram st.valid = 1
  in
  let app = Task.make_app ~check ~name:"weather" ~entry:"init" app_tasks in
  (app, pl.hooks, radio, net)

let build ?buffering variant m =
  let app, hooks, radio, _ = build_net ?buffering variant m in
  (app, hooks, radio)

(* Session builder: a fresh machine per session (allocation is
   deterministic, so its layout matches the golden machine's). The
   radio's receiver log is the only state outside the machine;
   [ses_save] snapshots it in O(1). *)
let session ?buffering variant ~seed =
  let m = Machine.create ~seed () in
  let app, hooks, radio = build ?buffering variant m in
  {
    Common.ses_machine = m;
    ses_app = app;
    ses_hooks = hooks;
    ses_cur_slot = None;
    ses_begin = (fun () -> ());
    ses_save =
      (fun () ->
        let r = Periph.Radio.snapshot radio in
        fun () -> Periph.Radio.restore radio r);
    ses_finish = (fun () -> ());
    ses_radio = radio;
  }

(* One built machine per (variant, buffering) per domain, recycled
   across runs as the VM apps' arenas are: [Machine.reset] zeroes the
   memories and keeps the layout, so a run re-flashes the weights and
   clears the radio log. The runtimes allocate some state lazily, at
   run time: EaseIO's call-site, DMA-site and region slots (FRAM words
   and the commit flags registered per task) appear the first time a
   run reaches them, and a recycled run starts with every one that
   earlier runs allocated. That equals a fresh build only because every
   Weather run, failures or not, reaches the same sites in the same
   order (a fixed task chain with no data-dependent I/O), so the first
   run allocates exactly what any later one would; a test holds
   recycled runs against freshly built ones. A fresh machine per run
   would allocate its memory images and the app anew each time, which
   raised the peak memory of campaigns that keep many runs' results. *)
type arena = {
  m : Machine.t;
  app : Task.app;
  hooks : Engine.hooks;
  radio : Periph.Radio.t;
  net : Dnn.Network.t;
  cur_slot : int;
}

let arenas : (Common.variant * [ `Single | `Double ], arena) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let arena ?(buffering = `Double) variant ~failure ~seed =
  let arenas = Domain.DLS.get arenas in
  match Hashtbl.find_opt arenas (variant, buffering) with
  | Some a ->
      Machine.reset ~seed ~failure a.m;
      Dnn.Network.reflash a.m a.net;
      Periph.Radio.reset a.radio;
      a
  | None ->
      let m = Machine.create ~seed ~failure () in
      let app, hooks, radio, net = build_net ~buffering variant m in
      (* the engine's task pointer, allocated where a fresh run's engine
         would allocate it *)
      let cur_slot = Machine.alloc m Memory.Fram ~name:"kernel.cur_task" ~words:1 in
      let a = { m; app; hooks; radio; net; cur_slot } in
      Hashtbl.add arenas (variant, buffering) a;
      a

let run_once ?buffering ?sink ?meter ?probe variant ~failure ~seed =
  let { m; app; hooks; cur_slot; _ } = arena ?buffering variant ~failure ~seed in
  Option.iter (Machine.set_sink m) sink;
  Option.iter (Machine.set_meter m) meter;
  let o = Engine.run ~hooks ~cur_slot m app in
  Option.iter (fun f -> f m) probe;
  Expkit.Run.of_outcome m o

let spec =
  {
    Common.app_name = "Weather App.";
    tasks;
    io_functions;
    (* everything downstream of the sensors and the camera: samples,
       the captured frame and all DNN state derived from it, the
       activation stats, and the packet staged from those values.
       weather.count and weather.valid stay schedule-invariant. *)
    nv_volatile =
      [
        "weather.temp_v";
        "weather.humd_v";
        "weather.packet";
        "weather.img_mean";
        "weather.act_stats";
        "dnn.";
      ];
    run =
      (fun ?interp:_ ?sink ?meter ?probe variant ~failure ~seed ->
        run_once ?sink ?meter ?probe variant ~failure ~seed);
    session =
      Some
        (fun ?(ablate_regions = false) ?(ablate_semantics = false) variant ~seed ->
          if ablate_regions || ablate_semantics then
            invalid_arg "Weather App.: ablation hooks only apply to task-language apps";
          session variant ~seed);
  }
