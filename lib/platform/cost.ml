type op_cost = { time_us : Units.time_us; energy_pj : Units.energy_pj }

type t = {
  cpu_op : op_cost;
  sram_read : op_cost;
  sram_write : op_cost;
  fram_read : op_cost;
  fram_write : op_cost;
  dma_word : op_cost;
  dma_setup : op_cost;
  lea_element : op_cost;
  lea_setup : op_cost;
  idle_pj_per_us : Units.energy_pj;
}

(* MSP430FR5994 @ 1 MHz, ~3.3 V: roughly 120 uA/MHz active -> ~0.4 nJ per
   cycle including leakage; FRAM accesses cost a little more energy than
   SRAM; DMA moves a word per cycle without CPU involvement; LEA processes
   one MAC per cycle at lower energy than the CPU doing the same. *)
let msp430fr5994 =
  {
    cpu_op = { time_us = 1; energy_pj = 400 };
    sram_read = { time_us = 1; energy_pj = 350 };
    sram_write = { time_us = 1; energy_pj = 400 };
    fram_read = { time_us = 1; energy_pj = 500 };
    fram_write = { time_us = 1; energy_pj = 700 };
    dma_word = { time_us = 1; energy_pj = 300 };
    dma_setup = { time_us = 8; energy_pj = 3_000 };
    lea_element = { time_us = 1; energy_pj = 250 };
    lea_setup = { time_us = 12; energy_pj = 5_000 };
    idle_pj_per_us = 50;
  }

let scale_pj f pj = Float.to_int (Float.round (float_of_int pj *. f))
let scale_op f c = { c with energy_pj = scale_pj f c.energy_pj }

let scale f t =
  {
    cpu_op = scale_op f t.cpu_op;
    sram_read = scale_op f t.sram_read;
    sram_write = scale_op f t.sram_write;
    fram_read = scale_op f t.fram_read;
    fram_write = scale_op f t.fram_write;
    dma_word = scale_op f t.dma_word;
    dma_setup = scale_op f t.dma_setup;
    lea_element = scale_op f t.lea_element;
    lea_setup = scale_op f t.lea_setup;
    idle_pj_per_us = scale_pj f t.idle_pj_per_us;
  }
