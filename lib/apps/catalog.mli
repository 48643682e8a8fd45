(** The evaluation-application catalog (Table 3). *)

val all : Common.spec list
(** LEA, DMA, Temp, FIR filter, Weather — in the paper's Table 3
    order. *)

exception Ambiguous of string list
(** A prefix that matches several applications, none exactly: the full
    names of every match, in catalog order. *)

val find : ?candidates:Common.spec list -> string -> Common.spec
(** Lookup by [app_name], exactly or by case-insensitive
    letters-and-digits prefix (["weather"] finds ["Weather App."],
    ["fir"] the ["FIR filter"]). An exact normalized match wins over
    longer names sharing the prefix. Raises [Not_found] when nothing
    matches and {!Ambiguous} when several do — silently picking the
    first match could run the wrong experiment. [candidates] defaults
    to {!all} (overridable for tests; the shipped names are
    prefix-free). *)
