(** The FIR-filter application (§5.4.1).

    Five tasks; the core task stages the signal and the filter
    coefficients from FRAM into LEA-RAM with two DMA transfers, runs
    four windowed LEA FIR commands in a loop, and DMA-stores the result
    {e over the same non-volatile signal buffer} — the write-after-read
    pattern that makes re-executed DMA corrupt memory under Alpaca/InK
    (the Fig. 12 experiment). Under EaseIO the fetches resolve to
    Private and the store to Single; the EaseIO/Op variant additionally
    marks the constant-coefficient fetch with Exclude. *)

val spec : Common.spec

val source : exclude_coefs:bool -> string
(** The .eio source (the [EaseIO/Op] variant uses
    [dma_copy_exclude] for the coefficient fetch). *)

val run_ablated :
  ?sink:Trace.Event.sink ->
  ?meter:Obs.Sheet.t ->
  ?probe:(Platform.Machine.t -> unit) ->
  ablate_regions:bool ->
  ablate_semantics:bool ->
  failure:Platform.Failure.spec ->
  seed:int ->
  unit ->
  Expkit.Run.one
(** EaseIO with parts switched off, for the ablation benches and
    broken-variant oracle tests. *)

val taps : int
val samples : int
