let all = [ Uni.lea; Uni.dma; Uni.temp; Fir.spec; Weather.spec ]

exception Ambiguous of string list

(* "weather" should find "Weather App.", "fir" the "FIR filter": compare
   case-insensitively on letters and digits only, accepting a prefix. *)
let normalize s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ -> ())
    s;
  Buffer.contents b

let find ?(candidates = all) name =
  match List.find_opt (fun s -> s.Common.app_name = name) candidates with
  | Some s -> s
  | None -> (
      let n = normalize name in
      if n = "" then raise Not_found
      else
        let matches =
          List.filter
            (fun s ->
              let cand = normalize s.Common.app_name in
              String.length cand >= String.length n && String.sub cand 0 (String.length n) = n)
            candidates
        in
        (* an exact normalized match ("temp" vs "Temp.") beats other
           candidates that merely extend the prefix *)
        match List.filter (fun s -> normalize s.Common.app_name = n) matches with
        | [ s ] -> s
        | _ -> (
            match matches with
            | [] -> raise Not_found
            | [ s ] -> s
            | ms -> raise (Ambiguous (List.map (fun s -> s.Common.app_name) ms))))
