open Platform

let input_dim = 16
let classes = 4
let weight_seed = 77

(* stage dimensions: 16x16 -> conv4 -> 13x13 -> conv4 -> 10x10 -> fc -> 4 *)
let conv_k = 4
let dim1 = input_dim - conv_k + 1 (* 13 *)
let dim2 = dim1 - conv_k + 1 (* 10 *)
let fc_in = dim2 * dim2
let layer_count = 4

(* The weights are constants of the network: generated once, flashed
   into every machine and read by every reference pass. *)
let conv1_weights = Weights.gen ~seed:weight_seed (conv_k * conv_k)
let conv2_weights = Weights.gen ~seed:(weight_seed + 1) (conv_k * conv_k)
let fc_weights = Weights.gen ~seed:(weight_seed + 2) (fc_in * classes)

type t = {
  buffering : [ `Single | `Double ];
  image : int;  (** FRAM: the input frame *)
  buf_a : int;  (** FRAM activation buffer *)
  buf_b : int;  (** FRAM activation buffer (double buffering only) *)
  w_conv1 : int;
  w_conv2 : int;
  w_fc : int;
  result : int;
  scratch : Layers.scratch;
}

let flash m addr values =
  let fram = Machine.mem m Memory.Fram in
  Array.iteri (fun i v -> Memory.write fram (addr + i) v) values

let reflash m t =
  flash m t.w_conv1 conv1_weights;
  flash m t.w_conv2 conv2_weights;
  flash m t.w_fc fc_weights

let create m ~buffering =
  let alloc name words = Machine.alloc m Memory.Fram ~name:("dnn." ^ name) ~words in
  let act_words = input_dim * input_dim in
  let t =
    {
      buffering;
      image = alloc "image" act_words;
      buf_a = alloc "buf_a" act_words;
      buf_b =
        (match buffering with `Double -> alloc "buf_b" act_words | `Single -> -1);
      w_conv1 = alloc "w_conv1" (conv_k * conv_k);
      w_conv2 = alloc "w_conv2" (conv_k * conv_k);
      w_fc = alloc "w_fc" (fc_in * classes);
      result = alloc "result" 1;
      scratch =
        Layers.alloc_scratch m ~max_act:act_words ~max_weights:(fc_in * classes);
    }
  in
  reflash m t;
  t

let image_loc t = Loc.fram t.image
let result m t = Memory.read (Machine.mem m Memory.Fram) t.result

(* activation buffer for a stage: single buffering reuses buf_a in
   place; double buffering ping-pongs between buf_a and buf_b *)
let stage_bufs t i =
  match t.buffering with
  | `Single -> (Loc.fram t.buf_a, Loc.fram t.buf_a)
  | `Double ->
      if i mod 2 = 0 then (Loc.fram t.buf_a, Loc.fram t.buf_b)
      else (Loc.fram t.buf_b, Loc.fram t.buf_a)

let run_layer m mover t i =
  match i with
  | 0 ->
      (* conv1 reads the camera frame, writes the first stage buffer *)
      let _, out0 = stage_bufs t 0 in
      Layers.conv2d m mover t.scratch ~input:(Loc.fram t.image) ~weights:(Loc.fram t.w_conv1)
        ~output:(match t.buffering with `Single -> Loc.fram t.buf_a | `Double -> out0)
        ~in_dim:input_dim ~k:conv_k ~relu:true
  | 1 ->
      let inp, out = stage_bufs t 1 in
      Layers.conv2d m mover t.scratch
        ~input:(match t.buffering with `Single -> Loc.fram t.buf_a | `Double -> inp)
        ~weights:(Loc.fram t.w_conv2)
        ~output:(match t.buffering with `Single -> Loc.fram t.buf_a | `Double -> out)
        ~in_dim:dim1 ~k:conv_k ~relu:true
  | 2 ->
      let inp, out = stage_bufs t 2 in
      Layers.fully_connected m mover t.scratch
        ~input:(match t.buffering with `Single -> Loc.fram t.buf_a | `Double -> inp)
        ~weights:(Loc.fram t.w_fc)
        ~output:(match t.buffering with `Single -> Loc.fram t.buf_a | `Double -> out)
        ~in_len:fc_in ~out_len:classes
  | 3 ->
      let inp, _ = stage_bufs t 3 in
      let cls =
        Layers.argmax m mover t.scratch
          ~input:(match t.buffering with `Single -> Loc.fram t.buf_a | `Double -> inp)
          ~len:classes
      in
      Machine.write m Memory.Fram t.result cls
  | _ -> invalid_arg "Network.run_layer: stage out of range"

let checksum a = Array.fold_left ( + ) 0 a land 0xFFFF

(* One bit-exact pass: the class, and the per-stage checksums the
   weather app's post-store statistics pass folds *)
let reference image =
  if Array.length image <> input_dim * input_dim then
    invalid_arg "Network.reference: image size mismatch";
  let a1 =
    Layers.ref_conv2d ~input:image ~weights:conv1_weights ~in_dim:input_dim ~k:conv_k ~relu:true
  in
  let a2 = Layers.ref_conv2d ~input:a1 ~weights:conv2_weights ~in_dim:dim1 ~k:conv_k ~relu:true in
  let logits = Layers.ref_fully_connected ~input:a2 ~weights:fc_weights ~out_len:classes in
  let cls = Layers.ref_argmax logits in
  (cls, [| checksum a1; checksum a2; checksum logits; cls land 0xFFFF |])

(* location and size of the activations stage [i] left in FRAM *)
let stage_output t i =
  let buf_of i =
    match t.buffering with
    | `Single -> t.buf_a
    | `Double -> if i mod 2 = 0 then t.buf_b else t.buf_a
  in
  match i with
  | 0 -> (Loc.fram (buf_of 0), dim1 * dim1)
  | 1 -> (Loc.fram (buf_of 1), dim2 * dim2)
  | 2 -> (Loc.fram (buf_of 2), classes)
  | 3 -> (Loc.fram t.result, 1)
  | _ -> invalid_arg "Network.stage_output"

let stored_image m t =
  let fram = Machine.mem m Memory.Fram in
  Array.init (input_dim * input_dim) (fun i -> Memory.read fram (t.image + i))
