type sem = Single | Timely of int | Always

let sem_name = function Single -> "Single" | Timely _ -> "Timely" | Always -> "Always"

type decision = Exec | Replay | Skip

let decision_name = function Exec -> "exec" | Replay -> "replay" | Skip -> "skip"

type mem = Fram | Sram

let mem_name = function Fram -> "FRAM" | Sram -> "SRAM"

type payload =
  | Boot of { index : int }
  | Power_failure of { index : int; cap_nj : float }
  | Cap_level of { nj : float }
  | Task_start of { task : string; attempt : int }
  | Task_commit of {
      task : string;
      attempt : int;
      app_us : int;
      ovh_us : int;
      app_nj : float;
      ovh_nj : float;
    }
  | Task_abort of {
      task : string;
      attempt : int;
      app_us : int;
      ovh_us : int;
      app_nj : float;
      ovh_nj : float;
    }
  | Io of { site : string; kind : string; sem : sem; decision : decision; reason : string }
  | Privatize of { runtime : string; task : string; words : int }
  | Commit of { runtime : string; task : string; words : int }
  | Region_priv of { region : string; words : int; restored : bool }
  | Dma of { src : mem; dst : mem; words : int }
  | Lea of { op : string; elements : int }
  | Radio_send of { words : int }
  | Count of { name : string; count : int }

type t = { ts_us : int; payload : payload }
type sink = t -> unit
