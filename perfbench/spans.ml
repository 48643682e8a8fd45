(* Host-time spans recorded by the benchmark around its calls into the
   program's layers.

   A span is named [layer.function]; everything before the first dot
   is the layer. Spans stay in memory until the run ends. A disabled
   recorder costs one branch per call, so untraced runs use the same
   code path. Recording is mutex-guarded: the serve load generator
   records from several client threads. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  op : int;  (** the benchmark op the span belongs to, [-1] for none *)
  tid : int;  (** client thread (serve) or 0 *)
  t0 : float;
  t1 : float;
}

type t = { enabled : bool; m : Mutex.t; mutable next : int; mutable spans : span list }

(* Monotonic seconds at nanosecond resolution (gettimeofday has only
   microseconds, which quantizes sub-millisecond latencies). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ~enabled = { enabled; m = Mutex.create (); next = 0; spans = [] }

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let add t s = locked t (fun () -> t.spans <- s :: t.spans)

(* [with_ t name f] runs [f id], where [id] names the new span as the
   parent of spans opened inside [f] ([-1] when disabled). *)
let with_ t ?(parent = -1) ?(op = -1) ?(tid = 0) name f =
  if not t.enabled then f (-1)
  else begin
    let id =
      locked t (fun () ->
          let id = t.next in
          t.next <- id + 1;
          id)
    in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> add t { id; parent; name; op; tid; t0; t1 = now () })
      (fun () -> f id)
  end

let spans t = locked t (fun () -> List.rev t.spans)

(* {1 Interval arithmetic} *)

(* Total length of the union of [(a, b)] intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: tl -> (
        match cur with
        | None -> go acc (Some (a, b)) tl
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) tl
            else go (acc +. (cb -. ca)) (Some (a, b)) tl)
  in
  go 0. None clipped

(* Self time of each span: its duration minus the part of its interval
   its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Per layer: (layer, summed self seconds, span count), sorted by layer. *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer s.name in
      let t, n = Option.value (Hashtbl.find_opt tbl l) ~default:(0., 0) in
      Hashtbl.replace tbl l (t +. self, n + 1))
    (self_times spans);
  Hashtbl.fold (fun l (t, n) acc -> (l, t, n) :: acc) tbl [] |> List.sort compare

(* Share of the window [lo, hi] that root spans cover. *)
let coverage ~lo ~hi spans =
  if hi <= lo then 0.
  else
    covered ~lo ~hi (List.filter_map (fun s -> if s.parent < 0 then Some (s.t0, s.t1) else None) spans)
    /. (hi -. lo)

(* {1 Export} *)

(* Chrome/Perfetto trace-event JSON: one complete ("X") event per span,
   microsecond timestamps relative to [base]. *)
let to_chrome ~base ~meta spans =
  let module J = Trace.Json in
  let us t = J.Float ((t -. base) *. 1e6) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("cat", J.String (layer s.name));
                   ("ph", J.String "X");
                   ("ts", us s.t0);
                   ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", J.Int 1);
                   ("tid", J.Int s.tid);
                   ( "args",
                     J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("op", J.Int s.op) ] );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
      ("metadata", J.Obj meta);
    ]
