(* What every workload shares: the run context, the outcome it hands
   back, and host measurements (clock, peak RSS). *)

type ctx = {
  seed : int;
  seconds : float;  (** minimum measured time, after the fixed work *)
  trace : bool;
  nproc : int;  (** CPUs this process may run on *)
  cli : string;  (** the [easeio] executable (serve spawns it) *)
  out_dir : string;  (** where the traced run writes its span file *)
}

type outcome = {
  attempted : int;
  failed : int;  (** ops that raised or gave a wrong answer *)
  e2e : (string * float) list;
  layer : (string * float) list;
  notes : string list;  (** human-readable lines: counts, checks, provenance *)
  spans : Perfbench.Spans.span list;
  window : float * float;  (** the traced pass, for span coverage *)
}

let now = Perfbench.Spans.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set ("VmHWM") of a process, in MB. *)
let peak_rss_mb ?pid () =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

(* Set-up measured [k] times: once on the calling domain, whose result
   the timed phase uses, and [k - 1] more times in fresh domains (each
   its own VM arena store, so nothing is reused) once [after] returns —
   after the timed phase has read the process's peak memory. A full
   major collection first settles the timed phase's GC debt, which the
   repeats would otherwise pay at random. *)
let repeated_setup ~k f ~after =
  let r, first = time f in
  let x = after r in
  Gc.full_major ();
  let more =
    List.init (k - 1) (fun _ ->
        let d = Domain.spawn (fun () -> snd (time f)) in
        Domain.join d)
  in
  (x, first :: more)

(* Latency percentiles in ms, refusing any without ten samples beyond
   it; [failwith] aborts the run without a result. *)
let latency_ms ~what samples =
  let sorted = Perfbench.Stats.sorted samples in
  let get p =
    match Perfbench.Stats.percentile sorted p with
    | Ok pc -> pc
    | Error e -> failwith (Printf.sprintf "%s latency: %s" what e)
  in
  let p50 = get 50. and p99 = get 99. in
  ( p50.value *. 1e3,
    p99.value *. 1e3,
    Printf.sprintf "%s latency: p50 %.4f ms, p99 %.4f ms over %d samples (%d beyond p99)" what
      (p50.value *. 1e3) (p99.value *. 1e3) p99.n p99.beyond )

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* {1 Host speed}

   On a shared VM the host's speed drifts by a fifth or more within
   minutes, which no run length averages out. CPU-bound workloads
   therefore time a fixed calibration loop between their ops and report
   host times at a reference speed: raw time x [calib_ref_s] / the
   run's median calibration time. The loop does not depend on the
   program, so a change to the program cannot move it. *)

let calib_ref_s = 0.001
let calib_mem = Array.make (1 lsl 16) 0
let calib_samples = Perfbench.Stats.samples ()

(* Seeded random reads and writes over a 512 KB array behind a four-way
   branch, about 1 ms. *)
let calibrate () =
  let a = calib_mem in
  let x = ref 0x2545F491 and acc = ref 0 in
  let t0 = now () in
  for i = 0 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 0xffff in
    match !x land 3 with
    | 0 -> a.(j) <- a.(j) + i
    | 1 -> acc := !acc + a.(j)
    | 2 -> a.(j) <- !acc land 0xff
    | _ -> acc := !acc lxor j
  done;
  Perfbench.Stats.push calib_samples (now () -. t0);
  ignore (Sys.opaque_identity !acc)

(* Multiply a host time by this (divide a rate) for its value at the
   reference speed. *)
let at_ref () =
  let a = Perfbench.Stats.sorted calib_samples in
  if Array.length a < 10 then failwith "host speed: fewer than 10 calibration samples";
  calib_ref_s /. a.(Array.length a / 2)

let calib_note () =
  let a = Perfbench.Stats.sorted calib_samples in
  Printf.sprintf
    "host speed: calibration median %.4f ms over %d samples; host times x %.4f for the %.1f ms reference"
    (a.(Array.length a / 2) *. 1e3) (Array.length a) (at_ref ()) (calib_ref_s *. 1e3)
