open Platform

(* the imager draws real power while integrating the frame *)
let exposure_pj_per_us = 800
let ev_capture = Machine.event_id "io:Capture"

let capture ?(exposure_us = 4_000) m ~(dst : Loc.t) ~pixels =
  Machine.bump_id m ev_capture;
  let slice = 250 in
  let rec expose remaining =
    if remaining > 0 then begin
      let step = min slice remaining in
      Machine.charge m ~us:step ~pj:(exposure_pj_per_us * step);
      expose (remaining - step)
    end
  in
  expose exposure_us;
  let shot_at = Machine.clock m in
  let w = Machine.world m in
  for i = 0 to pixels - 1 do
    Machine.write m dst.space (dst.addr + i) (World.image_pixel w shot_at i)
  done
