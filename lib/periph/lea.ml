open Platform

let ev_lea = Machine.event_id "io:LEA"

(* The LEA-RAM window is just a named SRAM region; allocating through the
   machine's SRAM layout keeps footprint accounting unified. *)
let alloc_leram m ~name ~words =
  Machine.alloc m Memory.Sram ~name:("leram." ^ name) ~words

let check_sram m addr len op =
  let size = Memory.size (Machine.mem m Memory.Sram) in
  if addr < 0 || addr + len > size then
    invalid_arg (Printf.sprintf "Lea.%s: operand [%d,%d) outside SRAM" op addr (addr + len))

let start m ~op elements =
  let c = Machine.cost m in
  (* executions are counted when the command is issued, so interrupted
     commands still count as spent I/O work *)
  Machine.bump_id m ev_lea;
  if Machine.traced m then Machine.emit m (Trace.Event.Lea { op; elements });
  Machine.charge_op m c.Cost.lea_setup 1;
  Machine.charge_op m c.Cost.lea_element elements

let vector_mac ?(shift = 0) m ~a ~b ~len =
  check_sram m a len "vector_mac";
  check_sram m b len "vector_mac";
  start m ~op:"vector_mac" len;
  Memory.dot (Machine.mem m Memory.Sram) a b len asr shift

let fir ?(shift = 0) m ~input ~coeffs ~taps ~output ~samples =
  check_sram m input (samples + taps - 1) "fir";
  check_sram m coeffs taps "fir";
  check_sram m output samples "fir";
  start m ~op:"fir" (samples * taps);
  let sram = Machine.mem m Memory.Sram in
  for i = 0 to samples - 1 do
    Memory.write sram (output + i) (Memory.dot sram (input + i) coeffs taps asr shift)
  done

let vector_max m ~a ~len =
  if len <= 0 then invalid_arg "Lea.vector_max: empty vector";
  check_sram m a len "vector_max";
  start m ~op:"vector_max" len;
  let sram = Machine.mem m Memory.Sram in
  let best = ref 0 in
  for i = 1 to len - 1 do
    if Memory.read sram (a + i) > Memory.read sram (a + !best) then best := i
  done;
  !best
