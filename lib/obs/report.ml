(* Diffing two bench documents with per-metric tolerances — the perf
   gate behind [easeio report --check].

   The simulator is deterministic, so most numbers in
   BENCH_results.json reproduce exactly and even the generous default
   tolerance catches a real regression (like the interp→vm cliff PR 6
   chased by hand). Wall-clock-derived numbers (throughput,
   calibration, *_wall_s) are host-dependent: throughput gets a wide
   multiplicative band and pure timing metadata is informational only.

   Documents are flattened to [path -> leaf] rows. Arrays of records
   are keyed by the record's string fields (["runtime"], ["buffering"],
   …) rather than position, so reordering or appending rows diffs
   cleanly; colliding keys get a [#n] suffix. *)

type tol = {
  rel : float;  (* one-sided relative slack for simulated metrics *)
  abs : float;  (* absolute floor so tiny integers don't trip [rel] *)
  wall_factor : float;  (* allowed throughput slowdown factor *)
}

let default_tol = { rel = 0.75; abs = 1.0; wall_factor = 4.0 }

type level = Note | Regression

type finding = { path : string; base : string; cur : string; level : level; detail : string }

(* {1 Flattening} *)

let path_append path k = if path = "" then k else path ^ "." ^ k

let item_key seen i (item : Trace.Json.t) =
  let base =
    match item with
    | Trace.Json.Obj fields ->
        let strs =
          List.filter_map
            (fun (_, v) -> match v with Trace.Json.String s -> Some s | _ -> None)
            fields
        in
        if strs = [] then string_of_int i else String.concat "/" strs
    | _ -> string_of_int i
  in
  let n = (match Hashtbl.find_opt seen base with Some n -> n | None -> 0) + 1 in
  Hashtbl.replace seen base n;
  if n = 1 then base else Printf.sprintf "%s#%d" base n

let flatten doc =
  let rows = ref [] in
  let rec go path (v : Trace.Json.t) =
    match v with
    | Trace.Json.Obj fields -> List.iter (fun (k, v) -> go (path_append path k) v) fields
    | Trace.Json.List items ->
        let seen = Hashtbl.create 8 in
        List.iteri (fun i item -> go (path_append path (item_key seen i item)) item) items
    | leaf -> rows := (path, leaf) :: !rows
  in
  go "" doc;
  List.rev !rows

(* {1 Classification} *)

let last_seg path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let ends_with suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let contains sub s =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  ls = 0 || go 0

(* Population/config counts and anything measured in host wall time:
   report deltas but never fail on them. *)
let informational path =
  let name = last_seg path in
  starts_with "meta." path
  || starts_with "experiment_wall_s." path
  || contains "calibration" path
  || ends_with "_wall_s" name
  || List.mem name
       [
         "schema_version";
         "reps";
         "jobs";
         "resumed_jobs";
         "recommended_domains";
         "seed";
         "runs";
         "count";
         "cases";
         "boundaries";
       ]

let throughput path = ends_with "_runs_per_s" (last_seg path)

(* {1 Diff} *)

let num_repr (v : Trace.Json.t) =
  match v with
  | Trace.Json.Int i -> string_of_int i
  | Trace.Json.Float f -> Printf.sprintf "%.6g" f
  | Trace.Json.String s -> Printf.sprintf "%S" s
  | Trace.Json.Bool b -> string_of_bool b
  | Trace.Json.Null -> "null"
  | _ -> "<composite>"

let as_number (v : Trace.Json.t) =
  match v with
  | Trace.Json.Int i -> Some (float_of_int i)
  | Trace.Json.Float f -> Some f
  | _ -> None

let pct base cur = if base = 0. then None else Some ((cur -. base) /. Float.abs base *. 100.)

let delta_str base cur =
  match pct base cur with
  | Some p -> Printf.sprintf "%+.1f%%" p
  | None -> Printf.sprintf "%+.6g" (cur -. base)

let compare_row tol path bv cv =
  match (as_number bv, as_number cv) with
  | Some b, Some c when b = c -> None
  | Some b, Some c ->
      let d = delta_str b c in
      if informational path then Some { path; base = num_repr bv; cur = num_repr cv; level = Note; detail = d ^ " (informational)" }
      else if throughput path then
        (* higher is better; host-dependent, so only a gross collapse
           (beyond 1/wall_factor of the baseline) fails *)
        if c < b /. tol.wall_factor then
          Some
            {
              path;
              base = num_repr bv;
              cur = num_repr cv;
              level = Regression;
              detail = Printf.sprintf "%s (slower than 1/%.0fx throughput band)" d tol.wall_factor;
            }
        else Some { path; base = num_repr bv; cur = num_repr cv; level = Note; detail = d ^ " (within throughput band)" }
      else if
        (* lower is better for simulated metrics (time, energy,
           redundant I/O, incorrect runs); improvements never fail *)
        c > b +. (tol.rel *. Float.abs b) +. tol.abs
      then
        Some
          {
            path;
            base = num_repr bv;
            cur = num_repr cv;
            level = Regression;
            detail = Printf.sprintf "%s (over +%.0f%% + %.3g tolerance)" d (tol.rel *. 100.) tol.abs;
          }
      else Some { path; base = num_repr bv; cur = num_repr cv; level = Note; detail = d }
  | _ ->
      if bv = cv then None
      else
        Some
          { path; base = num_repr bv; cur = num_repr cv; level = Note; detail = "value changed" }

let diff ?(tol = default_tol) ~base ~cur () =
  let base_rows = flatten base and cur_rows = flatten cur in
  let base_tbl = Hashtbl.create 256 in
  List.iter (fun (p, v) -> Hashtbl.replace base_tbl p v) base_rows;
  let findings = ref [] in
  let push f = findings := f :: !findings in
  List.iter
    (fun (p, cv) ->
      match Hashtbl.find_opt base_tbl p with
      | Some bv ->
          Hashtbl.remove base_tbl p;
          Option.iter push (compare_row tol p bv cv)
      | None -> push { path = p; base = "-"; cur = num_repr cv; level = Note; detail = "new metric" })
    cur_rows;
  (* rows only in the baseline, in their original order *)
  List.iter
    (fun (p, bv) ->
      if Hashtbl.mem base_tbl p then
        push { path = p; base = num_repr bv; cur = "-"; level = Note; detail = "metric removed" })
    base_rows;
  List.rev !findings

let regressions findings = List.filter (fun f -> f.level = Regression) findings
let rows doc = List.map (fun (p, v) -> (p, num_repr v)) (flatten doc)

let render findings =
  if findings = [] then "no differences\n"
  else begin
    let buf = Buffer.create 1024 in
    let w_path = List.fold_left (fun w f -> max w (String.length f.path)) 4 findings in
    let w_base = List.fold_left (fun w f -> max w (String.length f.base)) 4 findings in
    let w_cur = List.fold_left (fun w f -> max w (String.length f.cur)) 3 findings in
    Buffer.add_string buf
      (Printf.sprintf "%-*s  %*s  %*s  %s\n" w_path "path" w_base "base" w_cur "new" "delta");
    List.iter
      (fun f ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %*s  %*s  %s%s\n" w_path f.path w_base f.base w_cur f.cur
             f.detail
             (match f.level with Regression -> "  <-- REGRESSION" | Note -> "")))
      findings;
    let regs = List.length (regressions findings) in
    Buffer.add_string buf
      (if regs = 0 then Printf.sprintf "%d differences, no regressions\n" (List.length findings)
       else Printf.sprintf "%d differences, %d REGRESSIONS\n" (List.length findings) regs);
    Buffer.contents buf
  end
