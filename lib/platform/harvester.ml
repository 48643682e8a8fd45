type t =
  | Constant of float
  | Rf of { power_nj_per_us : float }
  | Trace of { period_us : int; samples : float array }

let constant p = Constant p

let rf ?(efficiency = 0.55) ~distance_inch () =
  (* Friis free-space: Pr = Pt * Gt * Gr * (lambda / (4 pi d))^2, from a
     3 W transmitter. 915 MHz -> lambda = 0.3276 m; patch antennas with
     ~6 dBi combined gain. *)
  let tx_power_w = 3.0 in
  let lambda = 0.3276 in
  let gain = 4.0 in
  let d_m = distance_inch *. 0.0254 in
  let ratio = lambda /. (4.0 *. Float.pi *. d_m) in
  let pr_w = tx_power_w *. gain *. ratio *. ratio *. efficiency in
  (* 1 W = 1e9 nJ/s = 1e3 nJ/us *)
  Rf { power_nj_per_us = pr_w *. 1e3 }

let trace ~period_us samples =
  if period_us <= 0 || Array.length samples = 0 then invalid_arg "Harvester.trace";
  Trace { period_us; samples }

let power t now =
  match t with
  | Constant p -> p
  | Rf { power_nj_per_us } -> power_nj_per_us
  | Trace { period_us; samples } ->
      let idx = now / period_us mod Array.length samples in
      samples.(idx)

let energy t ~at ~dur =
  match t with
  | Constant p -> p *. float_of_int dur
  | Rf { power_nj_per_us } -> power_nj_per_us *. float_of_int dur
  | Trace { period_us; _ } ->
      (* integrate trace step by step *)
      let rec go acc t0 remaining =
        if remaining <= 0 then acc
        else
          let step = min remaining (period_us - (t0 mod period_us)) in
          go (acc +. (power t t0 *. float_of_int step)) (t0 + step) (remaining - step)
      in
      go 0. at dur

let time_to_harvest t ~at ~nj =
  if nj <= 0. then Some 0
  else
    match t with
    | Constant p | Rf { power_nj_per_us = p } ->
        if p <= 0. then None else Some (int_of_float (ceil (nj /. p)))
    | Trace { period_us; samples } ->
        let horizon = 1000 * period_us * Array.length samples in
        let rec go acc t0 =
          if acc >= nj then Some (t0 - at)
          else if t0 - at > horizon then None
          else
            let step = period_us - (t0 mod period_us) in
            go (acc +. energy t ~at:t0 ~dur:step) (t0 + step)
        in
        go 0. at
