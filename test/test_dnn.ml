(* Tests for the DNN substrate: fixed-point ops, layer kernels vs their
   bit-exact references, and the weather network. *)

open Platform

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_fixed_roundtrip () =
  checki "one" 256 Dnn.Fixed.one;
  checki "of_float 1.0" 256 (Dnn.Fixed.of_float 1.0);
  checki "of_float -0.5" (-128) (Dnn.Fixed.of_float (-0.5));
  Alcotest.(check (float 0.01)) "to_float" 0.5 (Dnn.Fixed.to_float 128)

let test_fixed_mul () =
  (* 0.5 * 100 = 50 *)
  checki "q8 scale" 50 (Dnn.Fixed.mul 128 100);
  checki "relu clamps" 0 (Dnn.Fixed.relu (-3));
  checki "relu passes" 7 (Dnn.Fixed.relu 7)

let test_weights_deterministic_and_bounded () =
  let a = Dnn.Weights.gen ~seed:9 64 and b = Dnn.Weights.gen ~seed:9 64 in
  Alcotest.(check (array int)) "deterministic" a b;
  Array.iter (fun w -> checkb "bounded" true (w >= -256 && w <= 256)) a;
  let c = Dnn.Weights.gen ~seed:10 64 in
  checkb "seed matters" true (a <> c)

(* machine conv must equal the pure reference *)
let test_conv2d_matches_reference () =
  let m = Machine.create () in
  let in_dim = 6 and k = 3 in
  let input = Array.init (in_dim * in_dim) (fun i -> (i * 13 mod 97) - 40) in
  let weights = Dnn.Weights.gen ~seed:3 (k * k) in
  let src = Machine.alloc m Memory.Fram ~name:"in" ~words:(in_dim * in_dim) in
  let wts = Machine.alloc m Memory.Fram ~name:"w" ~words:(k * k) in
  let dst = Machine.alloc m Memory.Fram ~name:"out" ~words:16 in
  let fram = Machine.mem m Memory.Fram in
  Array.iteri (fun i v -> Memory.write fram (src + i) v) input;
  Array.iteri (fun i v -> Memory.write fram (wts + i) v) weights;
  let scratch = Dnn.Layers.alloc_scratch m ~max_act:(in_dim * in_dim) ~max_weights:(k * k) in
  Dnn.Layers.conv2d m (Dnn.Layers.raw_mover m) scratch ~input:(Loc.fram src)
    ~weights:(Loc.fram wts) ~output:(Loc.fram dst) ~in_dim ~k ~relu:true;
  let expected = Dnn.Layers.ref_conv2d ~input ~weights ~in_dim ~k ~relu:true in
  Array.iteri (fun i v -> checki (Printf.sprintf "out[%d]" i) v (Memory.read fram (dst + i)))
    expected

let test_fc_matches_reference () =
  let m = Machine.create () in
  let in_len = 9 and out_len = 4 in
  let input = Array.init in_len (fun i -> i * 3) in
  let weights = Dnn.Weights.gen ~seed:4 (in_len * out_len) in
  let src = Machine.alloc m Memory.Fram ~name:"in" ~words:in_len in
  let wts = Machine.alloc m Memory.Fram ~name:"w" ~words:(in_len * out_len) in
  let dst = Machine.alloc m Memory.Fram ~name:"out" ~words:out_len in
  let fram = Machine.mem m Memory.Fram in
  Array.iteri (fun i v -> Memory.write fram (src + i) v) input;
  Array.iteri (fun i v -> Memory.write fram (wts + i) v) weights;
  let scratch = Dnn.Layers.alloc_scratch m ~max_act:in_len ~max_weights:(in_len * out_len) in
  Dnn.Layers.fully_connected m (Dnn.Layers.raw_mover m) scratch ~input:(Loc.fram src)
    ~weights:(Loc.fram wts) ~output:(Loc.fram dst) ~in_len ~out_len;
  let expected = Dnn.Layers.ref_fully_connected ~input ~weights ~out_len in
  Array.iteri (fun i v -> checki (Printf.sprintf "out[%d]" i) v (Memory.read fram (dst + i)))
    expected

let run_network ~buffering image =
  let m = Machine.create () in
  let net = Dnn.Network.create m ~buffering in
  let img = Dnn.Network.image_loc net in
  Array.iteri (fun i v -> Memory.write (Machine.mem m Memory.Fram) (img.Loc.addr + i) v) image;
  for i = 0 to Dnn.Network.layer_count - 1 do
    Dnn.Network.run_layer m (Dnn.Layers.raw_mover m) net i
  done;
  Dnn.Network.result m net

let test_image () =
  Array.init (Dnn.Network.input_dim * Dnn.Network.input_dim) (fun i -> (i * 29 mod 251) + 1)

(* The network's reference pass, rebuilt from the layer references on
   freshly generated weights: 4x4 kernels, 16 -> 13 -> 10, then 100 x 4
   fully connected. *)
let layer_reference image =
  let k = 4 and seed = Dnn.Network.weight_seed in
  let dim1 = Dnn.Network.input_dim - k + 1 in
  let dim2 = dim1 - k + 1 in
  let a1 =
    Dnn.Layers.ref_conv2d ~input:image ~weights:(Dnn.Weights.gen ~seed (k * k))
      ~in_dim:Dnn.Network.input_dim ~k ~relu:true
  in
  let a2 =
    Dnn.Layers.ref_conv2d ~input:a1 ~weights:(Dnn.Weights.gen ~seed:(seed + 1) (k * k))
      ~in_dim:dim1 ~k ~relu:true
  in
  let logits =
    Dnn.Layers.ref_fully_connected ~input:a2
      ~weights:(Dnn.Weights.gen ~seed:(seed + 2) (dim2 * dim2 * Dnn.Network.classes))
      ~out_len:Dnn.Network.classes
  in
  let sum a = Array.fold_left ( + ) 0 a land 0xFFFF in
  let cls = Dnn.Layers.ref_argmax logits in
  (cls, [| sum a1; sum a2; sum logits; cls |])

let test_network_matches_reference () =
  let image = test_image () in
  checki "machine inference = reference"
    (fst (Dnn.Network.reference image))
    (run_network ~buffering:`Double image)

let test_single_double_agree_continuous () =
  let image = test_image () in
  checki "buffering is behaviour-neutral under continuous power"
    (run_network ~buffering:`Double image)
    (run_network ~buffering:`Single image)

let test_result_in_range () =
  let image = test_image () in
  let r = run_network ~buffering:`Double image in
  checkb "class in range" true (r >= 0 && r < Dnn.Network.classes)

let test_reference_stats_shape () =
  let image = test_image () in
  let cls, stats = Dnn.Network.reference image in
  checki "one per stage" Dnn.Network.layer_count (Array.length stats);
  Array.iter (fun s -> checkb "16-bit" true (s >= 0 && s <= 0xFFFF)) stats;
  checki "last stage is the class" cls stats.(Dnn.Network.layer_count - 1);
  Alcotest.(check (pair int (array int))) "= layer references" (layer_reference image) (cls, stats)

let prop_reference_matches_layers =
  QCheck.Test.make ~name:"Network.reference = layer references on Weights.gen" ~count:30
    QCheck.small_int
    (fun seed ->
      let image =
        Array.init (Dnn.Network.input_dim * Dnn.Network.input_dim) (fun i ->
            Platform.Rng.hash2 seed i mod 512)
      in
      Dnn.Network.reference image = layer_reference image)

let test_easeio_mover_equivalent () =
  (* the EaseIO mover must deliver the same data as raw DMA (continuous
     power) *)
  let image = test_image () in
  let m = Machine.create () in
  let net = Dnn.Network.create m ~buffering:`Double in
  let img = Dnn.Network.image_loc net in
  Array.iteri (fun i v -> Memory.write (Machine.mem m Memory.Fram) (img.Loc.addr + i) v) image;
  let rt = Easeio.Runtime.create m in
  (* give the runtime a live task context *)
  (Easeio.Runtime.hooks rt).Kernel.Engine.on_task_start m "t";
  for i = 0 to Dnn.Network.layer_count - 1 do
    Dnn.Network.run_layer m (Dnn.Layers.easeio_mover rt) net i
  done;
  checki "same class" (fst (Dnn.Network.reference image)) (Dnn.Network.result m net)

let prop_conv_reference_linear_in_input =
  QCheck.Test.make ~name:"conv reference: zero kernel gives zero output" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let in_dim = 5 and k = 2 in
      let input = Array.init (in_dim * in_dim) (fun i -> Platform.Rng.hash2 seed i mod 100) in
      let zeros = Array.make (k * k) 0 in
      let out = Dnn.Layers.ref_conv2d ~input ~weights:zeros ~in_dim ~k ~relu:false in
      Array.for_all (( = ) 0) out)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "dnn"
    [
      ( "fixed",
        [ tc "roundtrip" `Quick test_fixed_roundtrip; tc "mul/relu" `Quick test_fixed_mul ] );
      ("weights", [ tc "deterministic and bounded" `Quick test_weights_deterministic_and_bounded ]);
      ( "layers",
        [
          tc "conv2d matches reference" `Quick test_conv2d_matches_reference;
          tc "fc matches reference" `Quick test_fc_matches_reference;
          QCheck_alcotest.to_alcotest prop_conv_reference_linear_in_input;
        ] );
      ( "network",
        [
          tc "machine inference = reference" `Quick test_network_matches_reference;
          tc "single/double agree (continuous)" `Quick test_single_double_agree_continuous;
          tc "result in range" `Quick test_result_in_range;
          tc "reference stats shape" `Quick test_reference_stats_shape;
          QCheck_alcotest.to_alcotest prop_reference_matches_layers;
          tc "easeio mover equivalent" `Quick test_easeio_mover_equivalent;
        ] );
    ]
