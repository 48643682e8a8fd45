open Platform

(* event ids interned once at module init; sampling bumps by id *)
let ev_temp = Machine.event_id "io:Temp"
let ev_humd = Machine.event_id "io:Humd"
let ev_pres = Machine.event_id "io:Pres"
let ev_light = Machine.event_id "io:Light"

let sample m ~event ~us ~pj read =
  Machine.bump_id m event;
  Machine.charge m ~us ~pj;
  read (Machine.world m) (Machine.clock m)

let temperature_dc m = sample m ~event:ev_temp ~us:900 ~pj:700_000 World.temperature_dc
let humidity_pct m = sample m ~event:ev_humd ~us:700 ~pj:550_000 World.humidity_pct
let pressure_pa10 m = sample m ~event:ev_pres ~us:600 ~pj:450_000 World.pressure_pa10
let light_lux m = sample m ~event:ev_light ~us:400 ~pj:300_000 World.light_lux
