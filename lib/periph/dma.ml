open Platform

let chunk_words = 16
let ev_dma = Machine.event_id "io:DMA"

let copy m ~(src : Loc.t) ~(dst : Loc.t) ~words =
  if words < 0 then invalid_arg "Dma.copy: negative length";
  let c = Machine.cost m in
  (* executions are counted when the transfer is programmed, so a
     transfer cut short by a power failure still counts as (wasted) I/O
     work *)
  Machine.bump_id m ev_dma;
  if Machine.traced m then begin
    let kind = function Memory.Fram -> Trace.Event.Fram | Memory.Sram -> Trace.Event.Sram in
    Machine.emit m (Trace.Event.Dma { src = kind src.space; dst = kind dst.space; words })
  end;
  Machine.charge_op m c.Cost.dma_setup 1;
  let src_mem = Machine.mem m src.space and dst_mem = Machine.mem m dst.space in
  let rec go done_ =
    if done_ < words then begin
      (* int-specialized: polymorphic [min] calls the generic
         comparator once per chunk *)
      let left = words - done_ in
      let n = if chunk_words < left then chunk_words else left in
      (* charge first: if power fails inside the chunk, the chunk is not
         written, but earlier chunks already are -> partial copy. *)
      Machine.charge_op m c.Cost.dma_word n;
      Memory.blit ~src:src_mem ~src_addr:(src.addr + done_) ~dst:dst_mem
        ~dst_addr:(dst.addr + done_) ~words:n;
      go (done_ + n)
    end
  in
  go 0
