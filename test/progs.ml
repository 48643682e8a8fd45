(* Task-language apps shared by the faultkit and explore tests. *)

(* A task-language spec on [Common.run_ir]/[Common.session_ir]. *)
let spec_of_source ~name ?check src =
  {
    Apps.Common.app_name = name;
    tasks = 0;
    io_functions = 0;
    nv_volatile = [];
    run =
      (fun ?interp ?sink ?meter ?probe variant ~failure ~seed ->
        Apps.Common.run_ir ~src ?check ?interp ?sink ?meter ?probe variant ~failure ~seed);
    session = Some (Apps.Common.session_ir ~src ?check ());
  }

(* Two boundaries of one task, one inside the radio transmission and
   one after it, reboot into the same machine state: nothing
   non-volatile changed in between. Only the receiver log tells them
   apart, and the re-executed send makes the second case log a
   duplicate, which the check counts. *)
let radio_log_source =
  {|
program radio_log;
nv int reading;
task send_it {
  int i;
  int acc;
  call_io(Send, Always, reading);
  acc = 0;
  for i = 0 to 40 { acc = acc + i; }
  next finish;
}
task finish { stop; }
|}

let radio_log =
  spec_of_source ~name:"radio log"
    ~check:(fun t -> List.length (Periph.Radio.log (Lang.Interp.radio t)) = 1)
    radio_log_source
