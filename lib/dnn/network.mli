(** The weather-classifier network (§5.4.1).

    Five stages over a 16×16 camera image, as in the paper: 4×4
    convolution, ReLU (fused), another 4×4 convolution, a fully
    connected layer, and an inference (argmax) stage. Activations live
    in FRAM between layers; each layer stages through LEA-RAM (see
    {!Layers}). A layer touches memory a range at a time — the im2col
    gather copies each window row with one {!Platform.Memory.blit} and
    every MAC is one {!Platform.Memory.dot} — and the memory counters
    advance exactly as per-word access would.

    Two buffering disciplines are provided for the Table 5 experiment:
    [`Double] keeps separate input/output activation buffers per layer
    (the defensive idiom the paper says programmers must use under
    Alpaca/InK), [`Single] reuses one buffer in place — which is only
    safe under EaseIO's regional privatization and Single-DMA
    handling. *)

open Platform

type t

val input_dim : int
(** 16 — the image is 16×16. *)

val classes : int
(** 4 weather classes. *)

val weight_seed : int

val create : Machine.t -> buffering:[ `Single | `Double ] -> t
(** Allocate FRAM buffers and LEA-RAM scratch; flash the weights
    (uncharged, link-time). *)

val reflash : Machine.t -> t -> unit
(** Flash the weights again, into a machine recycled with
    {!Platform.Machine.reset} (which zeroes them). *)

val image_loc : t -> Loc.t
(** Where the camera must deposit the frame. *)

val layer_count : int
(** Number of accelerator stages (conv1, conv2, fc, argmax) — each is
    run as its own task by the weather application. *)

val run_layer : Machine.t -> Layers.mover -> t -> int -> unit
(** [run_layer m mover net i] executes stage [i]; stage
    [layer_count - 1] (argmax) stores the class into the result slot. *)

val result : Machine.t -> t -> int

val reference : int array -> int * int array
(** [reference image] runs the bit-exact OCaml network once on a raw
    image (length [input_dim]²) and returns its class together with the
    per-stage activation checksums ([conv1; conv2; logits; class]) the
    weather app's statistics pass should observe on an uncorrupted
    run. The weights are the network's constants, generated once. *)

val stage_output : t -> int -> Loc.t * int
(** FRAM location and word count of stage [i]'s stored output (used by
    the weather app's post-store activation-statistics pass). *)

val stored_image : Machine.t -> t -> int array
(** Uncharged read-back of the captured frame. *)
