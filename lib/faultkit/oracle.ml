open Platform

type golden = {
  fram : Memory.image;
  entries : Layout.entry list;
  charges : int;
  total_us : int;
}

let capture m =
  {
    fram = Memory.snapshot (Machine.mem m Memory.Fram);
    entries = Layout.entries (Machine.layout m Memory.Fram);
    charges = Machine.charges m;
    total_us = Machine.now m;
  }

type mismatch = { region : string; offset : int; expected : int; actual : int }

let pp_mismatch fmt { region; offset; expected; actual } =
  Format.fprintf fmt "%s[%d]: golden %d, got %d" region offset expected actual

(* Runtime bookkeeping is legitimately schedule-dependent: InK's
   inactive buffer holds the working copy of the last (possibly
   aborted) attempt; Alpaca's shadows, EaseIO's privatization buffers
   and the source transform's inserted state (locks, timestamps,
   privatization scratch — all "__"-prefixed) likewise mirror wherever
   failures happened to strike. The set mirrors Footprint's overhead
   accounting: only app-visible committed state must match the golden
   run. *)
let ignores = [ "__"; "rt."; "easeio." ]

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let max_reported = 16

let nv_diff ?(extra_volatile = []) ~golden m =
  let skip = ignores @ extra_volatile in
  let ignored name = List.exists (fun p -> has_prefix p name) skip in
  let mem = Machine.mem m Memory.Fram in
  let entries = Layout.entries (Machine.layout m Memory.Fram) in
  (* deterministic schedules never change what the program allocates;
     a layout divergence is itself an oracle violation *)
  if entries <> golden.entries then
    [ { region = "(layout)"; offset = 0; expected = List.length golden.entries;
        actual = List.length entries } ]
  else begin
    let mismatches = ref [] and count = ref 0 in
    List.iter
      (fun { Layout.name; addr; words } ->
        if not (ignored name) then
          (* report at most one mismatch per region: the first word
             tells which region corrupted; the rest is noise *)
          let rec scan i =
            if i < words && !count < max_reported then begin
              let expected = Memory.image_get golden.fram (addr + i)
              and actual = Memory.read mem (addr + i) in
              if expected <> actual then begin
                mismatches := { region = name; offset = i; expected; actual } :: !mismatches;
                incr count
              end
              else scan (i + 1)
            end
          in
          scan 0)
      entries;
    List.rev !mismatches
  end

(* {1 Always-re-execution oracle} *)

let always_skip_watch () =
  let skipped = ref [] in
  let sink (e : Trace.Event.t) =
    match e.payload with
    | Trace.Event.Io { site; sem = Trace.Event.Always; decision = Trace.Event.Skip; _ } ->
        skipped := site :: !skipped
    | _ -> ()
  in
  (sink, fun () -> List.rev !skipped)
