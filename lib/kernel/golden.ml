open Platform

let is_io (name, _) = String.length name > 3 && String.sub name 0 3 = "io:"
let io_executions m = List.filter is_io (Machine.events m)
