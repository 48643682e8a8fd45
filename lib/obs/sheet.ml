(* The per-run mutable scratchpad. One sheet belongs to exactly one
   run (or one sequentially-folded campaign shard), so updates are
   plain unsynchronized array stores — the same discipline as
   [Platform.Machine]'s event counters. Rows grow on demand because
   the registry keeps interning lazily as new code paths are hit. *)

type t = { mutable c : int array; mutable h : int array array }

let create () = { c = Array.make 32 0; h = Array.make 8 [||] }

let ensure_counter t id =
  if id >= Array.length t.c then begin
    let grown = Array.make (max (2 * Array.length t.c) (id + 1)) 0 in
    Array.blit t.c 0 grown 0 (Array.length t.c);
    t.c <- grown
  end

let ensure_hist t id =
  if id >= Array.length t.h then begin
    let grown = Array.make (max (2 * Array.length t.h) (id + 1)) [||] in
    Array.blit t.h 0 grown 0 (Array.length t.h);
    t.h <- grown
  end;
  if Array.length t.h.(id) = 0 then t.h.(id) <- Array.make Registry.buckets 0

let add t id n =
  ensure_counter t id;
  t.c.(id) <- t.c.(id) + n

let bump t id = add t id 1

let observe t id v =
  ensure_hist t id;
  let row = t.h.(id) in
  let b = Registry.bucket v in
  row.(b) <- row.(b) + 1

(* Deep copy, for forking a metering context at a snapshot point: the
   prefix-resume drivers copy the pacer's sheet at each checkpoint so
   every resumed case starts from the prefix's exact totals. *)
let copy t = { c = Array.copy t.c; h = Array.map Array.copy t.h }

(* Add [sign] times every row of [d] to [t]. *)
let add_rows t d sign =
  Array.iteri (fun id n -> if n <> 0 then add t id (sign * n)) d.c;
  Array.iteri
    (fun id row ->
      if Array.exists (fun n -> n <> 0) row then begin
        ensure_hist t id;
        let dst = t.h.(id) in
        Array.iteri (fun i n -> dst.(i) <- dst.(i) + (sign * n)) row
      end)
    d.h

let diff a b =
  let t = copy a in
  add_rows t b (-1);
  t

let add_sheet t d = add_rows t d 1
let sub_sheet t d = add_rows t d (-1)

let reset t =
  Array.fill t.c 0 (Array.length t.c) 0;
  Array.iter (fun row -> if Array.length row > 0 then Array.fill row 0 (Array.length row) 0) t.h

let counter t id = if id < Array.length t.c then t.c.(id) else 0

let fold_counters t f acc =
  let acc = ref acc in
  let n = min (Array.length t.c) (Registry.counters ()) in
  for id = 0 to n - 1 do
    if t.c.(id) <> 0 then acc := f !acc (Registry.counter_name id) t.c.(id)
  done;
  !acc

let fold_hists t f acc =
  let acc = ref acc in
  let n = min (Array.length t.h) (Registry.hists ()) in
  for id = 0 to n - 1 do
    let row = t.h.(id) in
    if Array.length row > 0 && Array.exists (fun x -> x <> 0) row then
      acc := f !acc (Registry.hist_name id) (Array.copy row)
  done;
  !acc
