type time_us = int
type energy_pj = int
type energy_nj = float

let nj_of_pj pj = float_of_int pj /. 1000.
