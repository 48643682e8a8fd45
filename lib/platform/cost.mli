(** Per-operation time and energy cost model.

    Costs are calibrated to a TI MSP430FR5994 running at 1 MHz from a
    ~3.3 V supply (≈0.3 nJ per active cycle), the platform used by the
    EaseIO paper. Absolute values are approximations; what matters for
    the reproduction is that relative magnitudes (peripheral ops ≫ memory
    accesses ≫ CPU ops) match the paper's platform.

    Energy is held in whole picojoules. Every constant of the default
    profile (and every peripheral cost in [lib/periph]) is a whole
    number of 50 pJ steps, so the machine's integer sums of charges are
    exact and do not depend on the order or grouping of the charges —
    which is what lets the bytecode VM apply a straight-line block's
    charges in one step (see {!Machine.charge_block}). *)

type op_cost = {
  time_us : Units.time_us;  (** duration of one operation *)
  energy_pj : Units.energy_pj;  (** energy drawn by one operation *)
}

type t = {
  cpu_op : op_cost;  (** one ALU/register instruction *)
  sram_read : op_cost;  (** one 16-bit SRAM word read *)
  sram_write : op_cost;  (** one 16-bit SRAM word write *)
  fram_read : op_cost;  (** one 16-bit FRAM word read *)
  fram_write : op_cost;  (** one 16-bit FRAM word write *)
  dma_word : op_cost;  (** DMA transfer of one word *)
  dma_setup : op_cost;  (** fixed cost to program a DMA transfer *)
  lea_element : op_cost;  (** one LEA vector-MAC element *)
  lea_setup : op_cost;  (** fixed cost to start a LEA command *)
  idle_pj_per_us : Units.energy_pj;  (** leakage while the MCU is on *)
}

val msp430fr5994 : t
(** Default profile for the paper's target board at 1 MHz. *)

val scale : float -> t -> t
(** [scale f t] multiplies every energy cost by [f], rounded to whole
    picojoules (time unchanged); used for what-if calibration. *)
