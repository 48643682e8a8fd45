type t = { seed : int }

let create ?(seed = 42) () = { seed }

(* Noise in [-range, range], constant within a [bucket_us] time window. *)
let noise t ~salt ~bucket_us ~range now =
  if range = 0 then 0
  else
    let h = Rng.hash2 (t.seed + salt) (now / bucket_us) in
    (h mod ((2 * range) + 1)) - range

let sinus ~period_us ~amplitude now =
  let phase = 2.0 *. Float.pi *. float_of_int (now mod period_us) /. float_of_int period_us in
  int_of_float (float_of_int amplitude *. sin phase)

(* Around 10.0 C with a 60 ms swell and per-ms jitter: crosses the 10 C
   threshold used by the paper's running example. *)
let temperature_dc t now =
  100 + sinus ~period_us:60_000 ~amplitude:25 now + noise t ~salt:1 ~bucket_us:1_000 ~range:12 now

let humidity_pct t now =
  let h = 55 + sinus ~period_us:90_000 ~amplitude:20 now + noise t ~salt:2 ~bucket_us:2_000 ~range:8 now in
  max 0 (min 100 h)

let pressure_pa10 t now =
  10_132 + sinus ~period_us:200_000 ~amplitude:40 now + noise t ~salt:3 ~bucket_us:5_000 ~range:15 now

let light_lux t now =
  let l = 500 + sinus ~period_us:150_000 ~amplitude:300 now + noise t ~salt:4 ~bucket_us:2_000 ~range:60 now in
  max 0 l

(* Ground-truth weather label in [0, 3], a slowly-varying function of
   time, that sets a scene's brightness *)
let weather_class t now = abs (Rng.hash2 (t.seed + 5) (now / 500_000)) mod 4

let image_pixel t now i =
  (* Scene brightness tracks the weather class; per-pixel texture from a
     stateless hash so frames are reproducible. *)
  let base = 40 + (50 * weather_class t now) in
  let tex = Rng.hash2 (t.seed + 6) ((now / 1_000 * 7919) + i) mod 64 in
  min 255 (base + tex)
