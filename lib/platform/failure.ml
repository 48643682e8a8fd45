type spec =
  | No_failures
  | Timer of { on_min_us : int; on_max_us : int; off_min_us : int; off_max_us : int }
  | Energy_driven
  | At_times of int list
  | Nth_charge of int

let paper_timer =
  Timer { on_min_us = 5_000; on_max_us = 20_000; off_min_us = 2_000; off_max_us = 15_000 }

(* Deterministic schedules reboot after a fixed off interval so the whole
   run stays a pure function of (spec, seed). *)
let deterministic_off_us = 5_000

(* Both triggers are normalized to integer deadlines with [max_int] as
   the "never" sentinel, so the per-charge liveness probe ({!fires},
   inlined into [Machine.charge]) is two compares — no constructor
   dispatch on the hot path. The [Nth_charge] one-shot latch is encoded
   by bumping [charge_deadline] back to [max_int] when it fires. *)
type t = {
  spec : spec;
  mutable deadline : Units.time_us;  (* Timer / At_times; max_int otherwise *)
  mutable charge_deadline : int;  (* Nth_charge target; max_int otherwise *)
  mutable remaining : int list;  (* At_times: schedule entries not yet armed *)
}

let create spec =
  let remaining = match spec with At_times ts -> List.sort_uniq compare ts | _ -> [] in
  let charge_deadline = match spec with Nth_charge n -> n | _ -> max_int in
  { spec; deadline = max_int; charge_deadline; remaining }

let spec t = t.spec

let arm t rng ~now =
  match t.spec with
  | No_failures | Energy_driven | Nth_charge _ -> t.deadline <- max_int
  | Timer { on_min_us; on_max_us; _ } -> t.deadline <- now + Rng.int_in rng on_min_us on_max_us
  | At_times _ ->
      (* Scheduled instants that fall inside the off interval we just
         slept through are unreachable: drop them. *)
      t.remaining <- List.filter (fun at -> at > now) t.remaining;
      t.deadline <- (match t.remaining with [] -> max_int | at :: _ -> at)

let[@inline] fires t ~now ~charges =
  now >= t.deadline
  || charges >= t.charge_deadline
     && begin
          (* one-shot: Nth_charge fires at most once per run *)
          t.charge_deadline <- max_int;
          true
        end

let[@inline] quiet t ~now ~charges = now < t.deadline && charges < t.charge_deadline

let energy_driven t =
  match t.spec with
  | Energy_driven -> true
  | No_failures | Timer _ | At_times _ | Nth_charge _ -> false

(* Snapshot support: the three mutable fields are the model's entire
   run state; capturing them (the [remaining] list is immutable) makes
   a machine snapshot total over the failure model. *)
let save t = (t.deadline, t.charge_deadline, t.remaining)

let load t (deadline, charge_deadline, remaining) =
  t.deadline <- deadline;
  t.charge_deadline <- charge_deadline;
  t.remaining <- remaining

let off_time t rng =
  match t.spec with
  | No_failures | Energy_driven -> 0
  | Timer { off_min_us; off_max_us; _ } -> Rng.int_in rng off_min_us off_max_us
  | At_times _ | Nth_charge _ -> deterministic_off_us

(* {1 Spec syntax}

   none | paper | energy | timer:ON_MIN,ON_MAX,OFF_MIN,OFF_MAX
        | at:T1,T2,... | nth:N *)

let to_string = function
  | No_failures -> "none"
  | Energy_driven -> "energy"
  | Timer { on_min_us; on_max_us; off_min_us; off_max_us } ->
      Printf.sprintf "timer:%d,%d,%d,%d" on_min_us on_max_us off_min_us off_max_us
  | At_times ts -> "at:" ^ String.concat "," (List.map string_of_int ts)
  | Nth_charge n -> Printf.sprintf "nth:%d" n

let of_string s =
  let ints body =
    String.split_on_char ',' body
    |> List.filter (fun f -> f <> "")
    |> List.fold_left
         (fun acc f ->
           match (acc, int_of_string_opt (String.trim f)) with
           | Error _, _ -> acc
           | Ok _, None -> Error (Printf.sprintf "not an integer: %S" f)
           | Ok l, Some n -> Ok (n :: l))
         (Ok [])
    |> Result.map List.rev
  in
  match s with
  | "none" -> Ok No_failures
  | "paper" -> Ok paper_timer
  | "energy" -> Ok Energy_driven
  | _ -> (
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "unknown failure spec %S (try none|paper|energy|timer:..|at:..|nth:N)" s)
      | Some i -> (
          let kind = String.sub s 0 i in
          let body = String.sub s (i + 1) (String.length s - i - 1) in
          match kind with
          | "timer" -> (
              match ints body with
              | Ok [ on_min_us; on_max_us; off_min_us; off_max_us ] ->
                  if on_min_us <= 0 || on_max_us < on_min_us || off_min_us < 0 || off_max_us < off_min_us
                  then Error "timer: need 0 < ON_MIN <= ON_MAX and 0 <= OFF_MIN <= OFF_MAX"
                  else Ok (Timer { on_min_us; on_max_us; off_min_us; off_max_us })
              | Ok _ -> Error "timer: expected 4 integers ON_MIN,ON_MAX,OFF_MIN,OFF_MAX"
              | Error e -> Error ("timer: " ^ e))
          | "at" -> (
              match ints body with
              | Ok [] -> Error "at: expected at least one instant"
              | Ok ts ->
                  if List.exists (fun at -> at <= 0) ts then Error "at: times must be positive"
                  else Ok (At_times ts)
              | Error e -> Error ("at: " ^ e))
          | "nth" -> (
              match ints body with
              | Ok [ n ] when n > 0 -> Ok (Nth_charge n)
              | Ok _ -> Error "nth: expected one positive integer"
              | Error e -> Error ("nth: " ^ e))
          | _ -> Error (Printf.sprintf "unknown failure spec kind %S" kind)))
