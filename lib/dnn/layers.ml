open Platform

type mover = {
  fetch : src:Loc.t -> leram_dst:int -> words:int -> unit;
  store : leram_src:int -> dst:Loc.t -> words:int -> unit;
}

let raw_mover m =
  {
    fetch = (fun ~src ~leram_dst ~words -> Periph.Dma.copy m ~src ~dst:(Loc.sram leram_dst) ~words);
    store = (fun ~leram_src ~dst ~words -> Periph.Dma.copy m ~src:(Loc.sram leram_src) ~dst ~words);
  }

let easeio_mover rt =
  {
    fetch =
      (fun ~src ~leram_dst ~words ->
        Easeio.Runtime.dma_copy rt ~name:"fetch" ~src ~dst:(Loc.sram leram_dst) ~words);
    store =
      (fun ~leram_src ~dst ~words ->
        Easeio.Runtime.dma_copy rt ~name:"store" ~src:(Loc.sram leram_src) ~dst ~words);
  }

type scratch = { act_in : int; act_out : int; wts : int; win : int }

let alloc_scratch m ~max_act ~max_weights =
  {
    act_in = Periph.Lea.alloc_leram m ~name:"dnn.act_in" ~words:max_act;
    act_out = Periph.Lea.alloc_leram m ~name:"dnn.act_out" ~words:max_act;
    wts = Periph.Lea.alloc_leram m ~name:"dnn.weights" ~words:max_weights;
    win = Periph.Lea.alloc_leram m ~name:"dnn.window" ~words:32;
  }

(* gather a k x k window into a contiguous run so one LEA MAC computes
   the whole dot product; the movement is DMA-assisted (im2col), so it
   charges transfer costs rather than CPU loads. Each window row is one
   blit, which counts its reads and writes as the per-word copy would. *)
let gather_window m s ~base ~in_dim ~x ~y ~k =
  let c = Machine.cost m in
  Machine.charge_op m c.Cost.dma_word (k * k);
  let sram = Machine.mem m Memory.Sram in
  for r = 0 to k - 1 do
    Memory.blit ~src:sram ~src_addr:(base + ((y + r) * in_dim) + x) ~dst:sram
      ~dst_addr:(s.win + (r * k)) ~words:k
  done

let conv2d m mover s ~input ~weights ~output ~in_dim ~k ~relu =
  let out_dim = in_dim - k + 1 in
  if out_dim < 1 then invalid_arg "Layers.conv2d: kernel larger than input";
  mover.fetch ~src:input ~leram_dst:s.act_in ~words:(in_dim * in_dim);
  mover.fetch ~src:weights ~leram_dst:s.wts ~words:(k * k);
  for y = 0 to out_dim - 1 do
    for x = 0 to out_dim - 1 do
      gather_window m s ~base:s.act_in ~in_dim ~x ~y ~k;
      let acc = Periph.Lea.vector_mac ~shift:8 m ~a:s.win ~b:s.wts ~len:(k * k) in
      let acc = if relu then Fixed.relu acc else acc in
      Machine.write m Memory.Sram (s.act_out + (y * out_dim) + x) acc
    done
  done;
  mover.store ~leram_src:s.act_out ~dst:output ~words:(out_dim * out_dim)

let fully_connected m mover s ~input ~weights ~output ~in_len ~out_len =
  mover.fetch ~src:input ~leram_dst:s.act_in ~words:in_len;
  mover.fetch ~src:weights ~leram_dst:s.wts ~words:(in_len * out_len);
  for j = 0 to out_len - 1 do
    let acc = Periph.Lea.vector_mac ~shift:8 m ~a:s.act_in ~b:(s.wts + (j * in_len)) ~len:in_len in
    Machine.write m Memory.Sram (s.act_out + j) acc
  done;
  mover.store ~leram_src:s.act_out ~dst:output ~words:out_len

let argmax m mover s ~input ~len =
  mover.fetch ~src:input ~leram_dst:s.act_in ~words:len;
  Periph.Lea.vector_max m ~a:s.act_in ~len

(* {1 Bit-exact references} *)

let ref_conv2d ~input ~weights ~in_dim ~k ~relu =
  let out_dim = in_dim - k + 1 in
  Array.init (out_dim * out_dim) (fun idx ->
      let y = idx / out_dim and x = idx mod out_dim in
      let acc = ref 0 in
      for r = 0 to k - 1 do
        for c = 0 to k - 1 do
          acc := !acc + (input.(((y + r) * in_dim) + x + c) * weights.((r * k) + c))
        done
      done;
      let v = !acc asr 8 in
      if relu then Fixed.relu v else v)

let ref_fully_connected ~input ~weights ~out_len =
  let in_len = Array.length input in
  Array.init out_len (fun j ->
      let acc = ref 0 in
      for i = 0 to in_len - 1 do
        acc := !acc + (input.(i) * weights.((j * in_len) + i))
      done;
      !acc asr 8)

let ref_argmax a =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
  !best
