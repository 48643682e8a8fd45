type time_us = int
type energy_pj = int
type energy_nj = float

let us_of_ms ms = ms * 1000
let ms_of_us us = float_of_int us /. 1000.
let nj_of_pj pj = float_of_int pj /. 1000.
let uj_of_nj nj = nj /. 1000.
let pp_time ppf us = Format.fprintf ppf "%.2fms" (ms_of_us us)
let pp_energy ppf nj = Format.fprintf ppf "%.2fuJ" (uj_of_nj nj)
