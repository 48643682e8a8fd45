let block = 2500
let compute_iters = 599

(* {1 DMA application — Single semantics, NVM -> NVM} *)

(* Each task performs one large single-shot block copy followed by
   independent computation (the paper's DMA benchmark pattern): once the
   copy completed, re-executing it after a failure in the compute part
   is pure waste — which EaseIO's Single annotation eliminates. *)
let dma_task ~k ~next =
  Printf.sprintf
    {|
task t%d {
  int i;
  int acc;
  dma_copy(src%d[0], dst%d[0], %d);
  acc = 0;
  for i = 0 to %d { acc = acc + ((i * %d) %% 31); }
  out%d = acc;
  %s
}
|}
    k k k block compute_iters k k next

let dma_source =
  Printf.sprintf
    {|
program dma_app;
nv int src1[%d];
nv int dst1[%d];
nv int src2[%d];
nv int dst2[%d];
nv int src3[%d];
nv int dst3[%d];
nv int out1;
nv int out2;
nv int out3;
%s%s%s|}
    block block block block block block
    (dma_task ~k:1 ~next:"next t2;")
    (dma_task ~k:2 ~next:"next t3;")
    (dma_task ~k:3 ~next:"stop;")

let dma_pattern k i = ((i * 7) + (k * 13)) land 0x3FFF

(* pure patterns, computed once at start-up: setup and check run on
   every benchmark repetition, and worker domains run them
   concurrently *)
let dma_images = Array.init 3 (fun k -> Array.init block (dma_pattern (k + 1)))

let dma_setup t =
  let m = Lang.Interp.machine t in
  List.iteri
    (fun k name -> Common.flash m (Lang.Interp.global_loc t name) dma_images.(k))
    [ "src1"; "src2"; "src3" ]

let dma_compute_reference k =
  let acc = ref 0 in
  for i = 0 to compute_iters do
    acc := !acc + (i * k mod 31)
  done;
  !acc

let dma_references = Array.init 3 (fun k -> dma_compute_reference (k + 1))

let dma_check t =
  let ok = ref true in
  List.iteri
    (fun k name -> if not (Lang.Interp.global_equals t name dma_images.(k)) then ok := false)
    [ "dst1"; "dst2"; "dst3" ];
  List.iteri
    (fun k name ->
      if Lang.Interp.read_global t name 0 <> dma_references.(k) then ok := false)
    [ "out1"; "out2"; "out3" ];
  !ok

(* ablation runner: EaseIO with all annotations forced to Always *)
let dma_run_ablated ~ablate_semantics ~failure ~seed =
  Common.run_ir ~src:dma_source ~setup:dma_setup ~check:dma_check ~ablate_regions:false
    ~ablate_semantics Common.Easeio ~failure ~seed

let dma =
  {
    Common.app_name = "DMA";
    tasks = 3;
    io_functions = 1;
    (* no sensor inputs: the whole committed image is schedule-invariant *)
    nv_volatile = [];
    run =
      (fun ?interp ?sink ?meter ?probe variant ~failure ~seed ->
        Common.run_ir ~src:dma_source ~setup:dma_setup ~check:dma_check ?interp ?sink ?meter
          ?probe variant ~failure ~seed);
    session = Some (Common.session_ir ~src:dma_source ~setup:dma_setup ~check:dma_check ());
  }

(* {1 Temperature application — Timely semantics} *)

let temp_iters = 199
let temp_samples = 8

let temp_source =
  Printf.sprintf
    {|
program temp_app;
nv int tsum;
nv int tcnt;
nv int tlast;
nv int out1;

task sense {
  int v;
  int acc;
  int i;
  v = call_io(Temp, Timely, 10ms);
  tlast = v;
  acc = 0;
  for i = 0 to %d { acc = acc + ((v + i) %% 13); }
  tsum = tsum + v + (acc %% 3);
  tcnt = tcnt + 1;
  if (tcnt < %d) { next sense; } else { next report; }
}

task report {
  out1 = tsum / tcnt;
  next finish;
}

task finish { stop; }
|}
    temp_iters temp_samples

let temp_check t =
  (* sensed values vary across runs, so the check is an invariant: the
     loop ran exactly [temp_samples] times and the average is a
     plausible (accumulated) temperature *)
  let cnt = Lang.Interp.read_global t "tcnt" 0 in
  let sum = Lang.Interp.read_global t "tsum" 0 in
  let avg = Lang.Interp.read_global t "out1" 0 in
  cnt = temp_samples && avg = sum / cnt && avg > 0 && avg < 400

let temp =
  {
    Common.app_name = "Temp.";
    tasks = 3;
    io_functions = 1;
    (* temperature samples are functions of sampling time, which failure
       schedules shift; tcnt (always 8) stays comparable *)
    nv_volatile = [ "tsum"; "tlast"; "out1" ];
    run =
      (fun ?interp ?sink ?meter ?probe variant ~failure ~seed ->
        Common.run_ir ~src:temp_source ~check:temp_check ?interp ?sink ?meter ?probe variant
          ~failure ~seed);
    session = Some (Common.session_ir ~src:temp_source ~check:temp_check ());
  }

(* {1 LEA application — Always semantics} *)

let vec = 256

let lea_iters = 249

let lea_task ~name ~mult ~accum ~next =
  Printf.sprintf
    {|
task %s {
  int i;
  int r;
  int post;
  for i = 0 to %d {
    va[i] = i %% 16;
    vb[i] = (i * %d) %% 16;
  }
  r = call_io(Lea_mac, Always, va, vb, %d);
  post = 0;
  for i = 0 to %d { post = post + ((r + i) %% 11); }
  r = r + (post %% 5);
  %s
  %s
}
|}
    name (vec - 1) mult vec lea_iters accum next

let lea_source =
  Printf.sprintf
    {|
program lea_app;
vol int va[%d];
vol int vb[%d];
nv int acc1;
nv int acc2;
nv int acc3;
%s%s%s|}
    vec vec
    (lea_task ~name:"mac1" ~mult:3 ~accum:"acc1 = r;" ~next:"next mac2;")
    (lea_task ~name:"mac2" ~mult:5 ~accum:"acc2 = acc1 + r;" ~next:"next mac3;")
    (lea_task ~name:"mac3" ~mult:7 ~accum:"acc3 = acc2 + r;" ~next:"stop;")

let lea_reference mult =
  let acc = ref 0 in
  for i = 0 to vec - 1 do
    acc := !acc + (i mod 16 * (i * mult mod 16))
  done;
  let r = !acc in
  let post = ref 0 in
  for i = 0 to lea_iters do
    post := !post + ((r + i) mod 11)
  done;
  r + (!post mod 5)

let lea_references = (lea_reference 3, lea_reference 5, lea_reference 7)

let lea_check t =
  let r1, r2, r3 = lea_references in
  Lang.Interp.read_global t "acc1" 0 = r1
  && Lang.Interp.read_global t "acc2" 0 = r1 + r2
  && Lang.Interp.read_global t "acc3" 0 = r1 + r2 + r3

let lea =
  {
    Common.app_name = "LEA";
    tasks = 3;
    io_functions = 1;
    nv_volatile = [];
    run =
      (fun ?interp ?sink ?meter ?probe variant ~failure ~seed ->
        Common.run_ir ~src:lea_source ~check:lea_check ?interp ?sink ?meter ?probe variant
          ~failure ~seed);
    session = Some (Common.session_ir ~src:lea_source ~check:lea_check ());
  }
