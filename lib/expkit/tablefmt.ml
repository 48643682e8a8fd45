let pad w s =
  if String.length s >= w then s else s ^ String.make (w - String.length s) ' '

let row widths cells =
  String.concat "  " (List.map2 pad widths (List.map (fun c -> c) cells))

let rule widths = String.concat "  " (List.map (fun w -> String.make w '-') widths)

let heading title =
  let bar = String.make (String.length title + 4) '=' in
  Printf.sprintf "\n%s\n| %s |\n%s" bar title bar

let ms v = Printf.sprintf "%.2fms" v
let uj v = Printf.sprintf "%.1fuJ" v
let f1 v = Printf.sprintf "%.1f" v
