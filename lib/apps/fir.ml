let signal_words = 511
let taps = 8
let samples = signal_words - taps + 1 (* 504, filtered in 4 segments of 126 *)
let seg = samples / 4

let table_words = 256

let source ~exclude_coefs =
  Printf.sprintf
    {|
program fir_app;
nv int signal[%d];
nv int coefs[%d];
nv int wtab[%d];
nv int chksum;
nv int progress;
vol int li[%d];
vol int lc[%d];
vol int lo[%d];
vol int lw[%d];

task start { progress = 1; next fir; }

task fir {
  int b;
  int i;
  int acc;
  %s(coefs[0], lc[0], %d);
  %s(wtab[0], lw[0], %d);
  dma_copy(signal[0], li[0], %d);
  for b = 0 to 3 {
    call_io(Lea_fir_seg, Always, li, b * %d, lc, %d, lo, b * %d, %d);
  }
  dma_copy(lo[0], signal[0], %d);
  acc = 0;
  for i = 0 to %d { acc = acc + (lo[i * 2] * lw[(i * 2) %% %d]); }
  chksum = acc;
  next verify;
}

task verify {
  if (chksum > 0) { progress = 2; }
  next send;
}

task send { call_io(Delay, Single, 2000); next finish; }

task finish { progress = 3; stop; }
|}
    signal_words taps table_words signal_words taps samples table_words
    (if exclude_coefs then "dma_copy_exclude" else "dma_copy")
    taps
    (if exclude_coefs then "dma_copy_exclude" else "dma_copy")
    table_words signal_words seg taps seg seg samples ((samples / 2) - 1) table_words

let signal_pattern i = ((i * 5) + 3) mod 16
let coef_pattern i = (i * 3 mod 7) + 1
let table_pattern i = (i * 7 mod 5) + 1

(* pure input images and the expected filter output, computed once at
   start-up: setup and check run on every benchmark repetition, and
   worker domains run them concurrently *)
let signal_image = Array.init signal_words signal_pattern
let coefs_image = Array.init taps coef_pattern
let table_image = Array.init table_words table_pattern

let reference_output =
  Array.init samples (fun i ->
      let acc = ref 0 in
      for j = 0 to taps - 1 do
        acc := !acc + (signal_image.(i + j) * coefs_image.(j))
      done;
      !acc)

let setup t =
  let m = Lang.Interp.machine t in
  Common.flash m (Lang.Interp.global_loc t "signal") signal_image;
  Common.flash m (Lang.Interp.global_loc t "coefs") coefs_image;
  Common.flash m (Lang.Interp.global_loc t "wtab") table_image

(* The whole signal buffer after a correct run: the filtered samples,
   then the unfiltered tail, which must keep the input; and the checksum
   the [fir] task computes over them. *)
let expected_signal =
  Array.init signal_words (fun i -> if i < samples then reference_output.(i) else signal_pattern i)

let expected_chksum =
  let chk = ref 0 in
  for i = 0 to (samples / 2) - 1 do
    chk := !chk + (reference_output.(i * 2) * table_pattern (i * 2 mod table_words))
  done;
  !chk

let check t =
  Lang.Interp.global_equals t "signal" expected_signal
  && Lang.Interp.read_global t "chksum" 0 = expected_chksum

(* DESIGN.md §6 ablations, run by the bench harness *)
let run_ablated ?sink ?meter ?probe ~ablate_regions ~ablate_semantics ~failure ~seed () =
  Common.run_ir ~src:(source ~exclude_coefs:false) ~setup ~check ?sink ?meter ?probe
    ~ablate_regions ~ablate_semantics Common.Easeio ~failure ~seed

let spec =
  {
    Common.app_name = "FIR filter";
    tasks = 5;
    io_functions = 2;
    (* the signal is flashed, not sensed: fully schedule-invariant *)
    nv_volatile = [];
    run =
      (fun ?interp ?sink ?meter ?probe variant ~failure ~seed ->
        let exclude_coefs = variant = Common.Easeio_op in
        Common.run_ir ~src:(source ~exclude_coefs) ~setup ~check ?interp ?sink ?meter ?probe
          variant ~failure ~seed);
    session =
      Some
        (fun ?ablate_regions ?ablate_semantics variant ~seed ->
          let exclude_coefs = variant = Common.Easeio_op in
          Common.session_ir ~src:(source ~exclude_coefs) ~setup ~check () ?ablate_regions
            ?ablate_semantics variant ~seed);
  }
