open Platform

type t = {
  mutable useful_app_us : int;
  mutable useful_ovh_us : int;
  mutable wasted_us : int;
  mutable useful_app_nj : float;
  mutable useful_ovh_nj : float;
  mutable wasted_nj : float;
  mutable commits : int;
  mutable attempts : int;
}

let create () =
  {
    useful_app_us = 0;
    useful_ovh_us = 0;
    wasted_us = 0;
    useful_app_nj = 0.;
    useful_ovh_nj = 0.;
    wasted_nj = 0.;
    commits = 0;
    attempts = 0;
  }

let commit t (a : Machine.attempt) =
  t.useful_app_us <- t.useful_app_us + a.app_us;
  t.useful_ovh_us <- t.useful_ovh_us + a.ovh_us;
  t.useful_app_nj <- t.useful_app_nj +. a.app_nj;
  t.useful_ovh_nj <- t.useful_ovh_nj +. a.ovh_nj;
  t.commits <- t.commits + 1;
  t.attempts <- t.attempts + 1

let fail t (a : Machine.attempt) =
  t.wasted_us <- t.wasted_us + a.app_us + a.ovh_us;
  t.wasted_nj <- t.wasted_nj +. a.app_nj +. a.ovh_nj;
  t.attempts <- t.attempts + 1

(* Snapshot support for the resumable engine: checkpoints copy the
   sheet, restores assign it back in place (the engine's outcome holds
   the session's metrics object, so identity must be preserved). *)
let copy t = { t with commits = t.commits }

let assign ~src ~dst =
  dst.useful_app_us <- src.useful_app_us;
  dst.useful_ovh_us <- src.useful_ovh_us;
  dst.wasted_us <- src.wasted_us;
  dst.useful_app_nj <- src.useful_app_nj;
  dst.useful_ovh_nj <- src.useful_ovh_nj;
  dst.wasted_nj <- src.wasted_nj;
  dst.commits <- src.commits;
  dst.attempts <- src.attempts

let total_us t = t.useful_app_us + t.useful_ovh_us + t.wasted_us

let to_json t =
  Trace.Json.Obj
    [
      ("useful_app_us", Trace.Json.Int t.useful_app_us);
      ("useful_ovh_us", Trace.Json.Int t.useful_ovh_us);
      ("wasted_us", Trace.Json.Int t.wasted_us);
      ("useful_app_nj", Trace.Json.Float t.useful_app_nj);
      ("useful_ovh_nj", Trace.Json.Float t.useful_ovh_nj);
      ("wasted_nj", Trace.Json.Float t.wasted_nj);
      ("commits", Trace.Json.Int t.commits);
      ("attempts", Trace.Json.Int t.attempts);
    ]
