type t = { space : Memory.space; addr : int }

let fram addr = { space = Memory.Fram; addr }
let sram addr = { space = Memory.Sram; addr }
let is_nv t = t.space = Memory.Fram
let offset t n = { t with addr = t.addr + n }
