exception Power_failure

type tag = App | Overhead

type attempt = { app_us : int; ovh_us : int; app_nj : float; ovh_nj : float }

type t = {
  fram : Memory.t;
  sram : Memory.t;
  fram_layout : Layout.t;
  sram_layout : Layout.t;
  cost : Cost.t;
  mutable failure : Failure.t;
  harvester : Harvester.t;
  cap : Capacitor.t;
  rng : Rng.t;
  world : World.t;
  mutable now : Units.time_us;
  mutable on : bool;
  mutable tag : tag;
  mutable boots : int;
  mutable failures : int;
  mutable charges : int;
  mutable critical_depth : int;
  mutable pending_death : bool;
  (* energy accounts in whole picojoules: integer sums are exact, so
     the order and grouping of charges cannot change them *)
  mutable total_pj : int;
  mutable app_pj : int;
  mutable ovh_pj : int;
  (* Timer modes never consult the capacitor, so the charge path leaves
     it alone: [cap] holds its level as of [total_pj = cap_pj], and
     [settle_cap] drains the difference when something reads it. *)
  mutable cap_pj : int;
  (* [Failure.energy_driven failure], cached: probed on every charge *)
  mutable energy_mode : bool;
  mutable att_app_us : int;
  mutable att_ovh_us : int;
  (* event counters, indexed by interned id (see {!Events}) *)
  mutable ev_counts : int array;
  mutable sink : Trace.Event.sink option;
  (* metrics sheet; same zero-cost-when-off discipline as [sink] *)
  mutable meter : Obs.Sheet.t option;
  mutable next_cap_sample_us : int;
  (* reads of [now] by simulated code (see {!clock}); bookkeeping for
     drivers, outside snapshots like the sink and the meter *)
  mutable clock_reads : int;
  (* consulted before a power failure takes the machine down (see
     {!intercept}); outside snapshots like the sink *)
  mutable interceptor : (unit -> bool) option;
}

(* Periodic capacitor samples are emitted at most this often (simulated
   time); one per ms keeps Perfetto counter tracks readable without
   inflating traces. *)
let cap_sample_interval_us = 1_000

(* The MSP430FR5994's memories in 16-bit words: 256 KB FRAM, 8 KB SRAM *)
let fram_words = 131_072
let sram_words = 4_096

let create ?(seed = 1) ?(cost = Cost.msp430fr5994) ?(failure = Failure.No_failures)
    ?(harvester = Harvester.constant 1.0) ?(capacitor = Capacitor.mf1_powercast ()) () =
  let failure = Failure.create failure in
  {
    fram = Memory.create Fram ~words:fram_words;
    sram = Memory.create Sram ~words:sram_words;
    fram_layout = Layout.create ~words:fram_words;
    sram_layout = Layout.create ~words:sram_words;
    cost;
    failure;
    harvester;
    cap = capacitor;
    rng = Rng.create seed;
    world = World.create ();
    now = 0;
    on = true;
    tag = App;
    boots = 0;
    failures = 0;
    charges = 0;
    critical_depth = 0;
    pending_death = false;
    total_pj = 0;
    app_pj = 0;
    ovh_pj = 0;
    cap_pj = 0;
    energy_mode = Failure.energy_driven failure;
    att_app_us = 0;
    att_ovh_us = 0;
    ev_counts = Array.make (max 16 (Events.registered ())) 0;
    sink = None;
    meter = None;
    next_cap_sample_us = 0;
    clock_reads = 0;
    interceptor = None;
  }

(* Recycle a machine for a fresh run: equivalent to [create] with the
   same structural parameters (cost model, harvester, capacitor) but
   without reallocating the word arrays — the static layouts survive,
   which is exactly what a compiled-program arena needs. Every piece of
   run state is re-zeroed by hand; keep this in sync with the record
   fields above. *)
let reset ?(seed = 1) ?(failure = Failure.No_failures) t =
  (* every program-reachable address comes from Layout.alloc, so only
     the allocated prefix can be dirty — skip memset-ing the tail *)
  Memory.untrack t.fram;
  Memory.untrack t.sram;
  Memory.clear_prefix t.fram (Layout.used t.fram_layout);
  Memory.clear_prefix t.sram (Layout.used t.sram_layout);
  Memory.reset_counters t.fram;
  Memory.reset_counters t.sram;
  t.failure <- Failure.create failure;
  Rng.reseed t.rng seed;
  Capacitor.set_full t.cap;
  t.now <- 0;
  t.on <- true;
  t.tag <- App;
  t.boots <- 0;
  t.failures <- 0;
  t.charges <- 0;
  t.critical_depth <- 0;
  t.pending_death <- false;
  t.energy_mode <- Failure.energy_driven t.failure;
  t.total_pj <- 0;
  t.app_pj <- 0;
  t.ovh_pj <- 0;
  t.cap_pj <- 0;
  t.att_app_us <- 0;
  t.att_ovh_us <- 0;
  Array.fill t.ev_counts 0 (Array.length t.ev_counts) 0;
  t.sink <- None;
  t.meter <- None;
  t.next_cap_sample_us <- 0;
  t.clock_reads <- 0;
  t.interceptor <- None

(* {1 Tracing}

   Emission is pure observation: no simulated time or energy is ever
   charged for it, so attaching a sink cannot change a run's numbers,
   and the nil-sink default costs one branch per charge. *)

let set_sink t sink = t.sink <- Some sink
let clear_sink t = t.sink <- None
let sink t = t.sink
let traced t = match t.sink with None -> false | Some _ -> true

(* {1 Metering}

   The campaign-metrics analogue of the sink: instrumented layers test
   [meter] (one branch when off) and bump interned [Obs] counters when
   on. Like emission, metering is pure observation — it never charges
   simulated time or energy. *)

let set_meter t sheet = t.meter <- Some sheet
let clear_meter t = t.meter <- None
let meter t = t.meter
let metered t = match t.meter with None -> false | Some _ -> true

let emit t payload =
  match t.sink with
  | None -> ()
  | Some sink -> sink { Trace.Event.ts_us = t.now; payload }

(* Bring the capacitor's level up to date in timer modes (see
   [cap_pj]); energy mode keeps it current on every charge. Only the
   readers that report the level settle it — trace samples and boot and
   failure events, {!capacitor}, a switch into energy mode — so where
   they read is what fixes its rounding, and a snapshot (which captures
   the unsettled pair) changes nothing that is read later. *)
let settle_cap t =
  if not t.energy_mode then begin
    let lvl = t.cap.Capacitor.level -. Units.nj_of_pj (t.total_pj - t.cap_pj) in
    t.cap_pj <- t.total_pj;
    t.cap.Capacitor.level <- (if lvl <= 0. then 0. else lvl)
  end

(* Settles only when a sample is due, never per charge, so a traced
   charge pays nothing for the lazy level. *)
let maybe_sample_cap t =
  match t.sink with
  | None -> ()
  | Some sink ->
      if t.now >= t.next_cap_sample_us then begin
        t.next_cap_sample_us <- t.now + cap_sample_interval_us;
        settle_cap t;
        sink
          {
            Trace.Event.ts_us = t.now;
            payload = Trace.Event.Cap_level { nj = Capacitor.level t.cap };
          }
      end

let now t = t.now

let clock t =
  t.clock_reads <- t.clock_reads + 1;
  t.now

let clock_reads t = t.clock_reads
let on t = t.on
let rng t = t.rng
let world t = t.world
let cost t = t.cost
let boots t = t.boots
let failures t = t.failures
let charges t = t.charges
let energy_used_nj t = Units.nj_of_pj t.total_pj

let capacitor t =
  settle_cap t;
  t.cap

let failure_spec t = Failure.spec t.failure
let set_tag t tag = t.tag <- tag
let tag t = t.tag

let with_tag t tag f =
  let saved = t.tag in
  t.tag <- tag;
  Fun.protect ~finally:(fun () -> t.tag <- saved) f

(* Every power loss funnels through [kill] so the trace always carries
   the failure instant (with the capacitor level at death). An
   interceptor that takes the failure leaves the machine running, as if
   nothing had fired. *)
let kill t =
  match t.interceptor with
  | Some f when f () -> ()
  | _ ->
      t.on <- false;
      if traced t then begin
        settle_cap t;
        emit t
          (Trace.Event.Power_failure { index = t.failures + 1; cap_nj = Capacitor.level t.cap })
      end;
      raise Power_failure

let die t = if t.critical_depth > 0 then t.pending_death <- true else kill t
let intercept t f = t.interceptor <- f

(* Failure-atomic section: real task runtimes make their commit sequence
   atomic with replay protocols (e.g. Alpaca's commit list); we model
   that by deferring a power failure that strikes inside the section to
   its end. Time and energy are still charged normally. *)
let critical t f =
  t.critical_depth <- t.critical_depth + 1;
  let finish () =
    t.critical_depth <- t.critical_depth - 1;
    if t.critical_depth = 0 && t.pending_death then begin
      t.pending_death <- false;
      kill t
    end
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      t.critical_depth <- t.critical_depth - 1;
      raise e

(* The accounting every simulated instruction pays, inlined into
   [charge_op]/[cpu]/[read]/[write]. Integer picojoules keep every
   account exact and unboxed; in timer modes the capacitor is settled
   lazily (see [cap_pj]), so the charge touches no float at all. *)
let[@inline] charge t ~us ~pj =
  if us < 0 then invalid_arg "Machine.charge: negative time";
  t.charges <- t.charges + 1;
  let pj = pj + (t.cost.Cost.idle_pj_per_us * us) in
  t.now <- t.now + us;
  t.total_pj <- t.total_pj + pj;
  (match t.tag with
  | App ->
      t.att_app_us <- t.att_app_us + us;
      t.app_pj <- t.app_pj + pj
  | Overhead ->
      t.att_ovh_us <- t.att_ovh_us + us;
      t.ovh_pj <- t.ovh_pj + pj);
  if t.energy_mode then begin
    Capacitor.harvest t.cap (Harvester.energy t.harvester ~at:(t.now - us) ~dur:us);
    (match Capacitor.drain t.cap (Units.nj_of_pj pj) with `Dead -> die t | `Ok -> ());
    maybe_sample_cap t
  end
  else begin
    if Failure.fires t.failure ~now:t.now ~charges:t.charges then die t;
    maybe_sample_cap t
  end

let[@inline] charge_op t (op : Cost.op_cost) n =
  if n > 0 then charge t ~us:(op.time_us * n) ~pj:(op.energy_pj * n)

(* A run of charges that no failure, sink or capacitor can observe
   between its first and last charge may be applied as one step; with
   integer accounts the result is the same as charging one by one. In a
   timer mode a charge that does not fire shows a sink nothing but a
   capacitor sample, so a traced run batches while none falls due. *)
let[@inline] batchable t ~n ~us =
  (not t.energy_mode)
  && (match t.sink with None -> true | Some _ -> t.now + us < t.next_cap_sample_us)
  && Failure.quiet t.failure ~now:(t.now + us) ~charges:(t.charges + n)

let[@inline] charge_block t ~n ~us ~pj ~ovh_us ~ovh_pj =
  let idle = t.cost.Cost.idle_pj_per_us in
  let pj = pj + (idle * us) and ovh_pj = ovh_pj + (idle * ovh_us) in
  t.charges <- t.charges + n;
  t.now <- t.now + us + ovh_us;
  t.total_pj <- t.total_pj + pj + ovh_pj;
  match t.tag with
  | App ->
      t.att_app_us <- t.att_app_us + us;
      t.app_pj <- t.app_pj + pj;
      t.att_ovh_us <- t.att_ovh_us + ovh_us;
      t.ovh_pj <- t.ovh_pj + ovh_pj
  | Overhead ->
      t.att_ovh_us <- t.att_ovh_us + us + ovh_us;
      t.ovh_pj <- t.ovh_pj + pj + ovh_pj

let[@inline] cpu t n = charge_op t t.cost.Cost.cpu_op n

let idle t dur =
  (* slice so the failure model can interrupt long delay loops *)
  let slice = 250 in
  let rec go remaining =
    if remaining > 0 then begin
      let step = min slice remaining in
      charge t ~us:step ~pj:0;
      go (remaining - step)
    end
  in
  go dur

let mem t = function Memory.Fram -> t.fram | Memory.Sram -> t.sram
let layout t = function Memory.Fram -> t.fram_layout | Memory.Sram -> t.sram_layout
let alloc t space ~name ~words = Layout.alloc (layout t space) ~name ~words

let[@inline] read t space addr =
  (match space with
  | Memory.Fram -> charge_op t t.cost.Cost.fram_read 1
  | Memory.Sram -> charge_op t t.cost.Cost.sram_read 1);
  Memory.read (mem t space) addr

let[@inline] write t space addr v =
  (match space with
  | Memory.Fram -> charge_op t t.cost.Cost.fram_write 1
  | Memory.Sram -> charge_op t t.cost.Cost.sram_write 1);
  Memory.write (mem t space) addr v

let boot t =
  t.boots <- t.boots + 1;
  t.on <- true;
  t.pending_death <- false;
  Failure.arm t.failure t.rng ~now:t.now;
  if traced t then begin
    emit t (Trace.Event.Boot { index = t.boots });
    settle_cap t;
    emit t (Trace.Event.Cap_level { nj = Capacitor.level t.cap });
    t.next_cap_sample_us <- t.now + cap_sample_interval_us
  end

let reboot t =
  t.failures <- t.failures + 1;
  let off =
    if Failure.energy_driven t.failure then begin
      (* recharge from the off threshold back to the boot threshold *)
      let needed = Capacitor.on_level t.cap -. Capacitor.level t.cap in
      match Harvester.time_to_harvest t.harvester ~at:t.now ~nj:needed with
      | Some dur ->
          Capacitor.set_ready t.cap;
          dur
      | None -> failwith "Machine.reboot: harvester yields no power; device never reboots"
    end
    else Failure.off_time t.failure t.rng
  in
  t.now <- t.now + off;
  Memory.clear_prefix t.sram (Layout.used t.sram_layout);
  boot t

let take_attempt t =
  let a =
    {
      app_us = t.att_app_us;
      ovh_us = t.att_ovh_us;
      app_nj = Units.nj_of_pj t.app_pj;
      ovh_nj = Units.nj_of_pj t.ovh_pj;
    }
  in
  t.att_app_us <- 0;
  t.att_ovh_us <- 0;
  t.app_pj <- 0;
  t.ovh_pj <- 0;
  a

(* Event counters are a dense int array indexed by interned id; hot
   sites (peripherals) intern once at module init and call [bump_id].
   The string API survives as a shim for tests and ad-hoc callers. *)

let event_id = Events.id

let bump_id t id =
  if id >= Array.length t.ev_counts then begin
    let bigger = Array.make (max (2 * Array.length t.ev_counts) (id + 1)) 0 in
    Array.blit t.ev_counts 0 bigger 0 (Array.length t.ev_counts);
    t.ev_counts <- bigger
  end;
  let n = t.ev_counts.(id) + 1 in
  t.ev_counts.(id) <- n;
  if traced t then emit t (Trace.Event.Count { name = Events.name id; count = n })

let bump t name = bump_id t (event_id name)

let event t name =
  match Events.find name with
  | Some id when id < Array.length t.ev_counts -> t.ev_counts.(id)
  | Some _ | None -> 0

let events t =
  let acc = ref [] in
  Array.iteri (fun id n -> if n > 0 then acc := (Events.name id, n) :: !acc) t.ev_counts;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

(* {1 Snapshots}

   A snapshot is a total capture of the machine's run state: memory
   images (copy-on-write, so repeated captures cost O(pages written
   between them)), the failure model's mutable state, capacitor
   level, RNG state, clocks, counters and accounting buckets. It
   deliberately EXCLUDES the static layouts (monotone link-time data
   shared by every run of an arena) and the attached sink/meter (pure
   observers, re-attached by whoever restores). Restoring a snapshot
   and re-running is byte-identical to having re-executed the original
   prefix — the resumable-engine and explorer layers build on exactly
   that guarantee. *)

type snapshot = {
  sn_fram : Memory.image;
  sn_sram : Memory.image;
  sn_fram_reads : int;
  sn_fram_writes : int;
  sn_sram_reads : int;
  sn_sram_writes : int;
  sn_failure_spec : Failure.spec;
  sn_failure : int * int * int list;
  sn_cap_level : float;
  sn_cap_pj : int;
  sn_rng : int64;
  sn_now : Units.time_us;
  sn_on : bool;
  sn_tag : tag;
  sn_boots : int;
  sn_failures : int;
  sn_charges : int;
  sn_critical_depth : int;
  sn_pending_death : bool;
  sn_total_pj : int;
  sn_app_pj : int;
  sn_ovh_pj : int;
  sn_energy_mode : bool;
  sn_att_app_us : int;
  sn_att_ovh_us : int;
  sn_ev_counts : int array;
  sn_next_cap : int;
}

(* Structural hash of everything that can influence future evolution or
   end-of-run checks: memories, clock, power state, energy, RNG, event
   counts and the failure model's mutable state (but NOT its spec — the
   explorer compares states reached under different [Nth_charge]
   targets whose latched post-fire state is identical).
   Pure observers (memory access counters, sink, meter) are excluded. *)
let snapshot_hash sn =
  let h = ref 0x811c9dc5 in
  let add v = h := (!h * 0x01000193) lxor v in
  let addf f = add (Int64.to_int (Int64.bits_of_float f)) in
  add (Memory.image_hash sn.sn_fram);
  add (Memory.image_hash sn.sn_sram);
  add sn.sn_now;
  add (Bool.to_int sn.sn_on);
  add (match sn.sn_tag with App -> 0 | Overhead -> 1);
  add sn.sn_boots;
  add sn.sn_failures;
  add sn.sn_charges;
  add sn.sn_critical_depth;
  add (Bool.to_int sn.sn_pending_death);
  add sn.sn_total_pj;
  add sn.sn_app_pj;
  add sn.sn_ovh_pj;
  addf sn.sn_cap_level;
  add sn.sn_cap_pj;
  add (Int64.to_int sn.sn_rng);
  add sn.sn_att_app_us;
  add sn.sn_att_ovh_us;
  Array.iter add sn.sn_ev_counts;
  let deadline, charge_deadline, remaining = sn.sn_failure in
  add deadline;
  add charge_deadline;
  List.iter add remaining;
  !h land max_int

let snapshot t =
  {
    sn_fram = Memory.snapshot t.fram;
    sn_sram = Memory.snapshot t.sram;
    sn_fram_reads = Memory.reads t.fram;
    sn_fram_writes = Memory.writes t.fram;
    sn_sram_reads = Memory.reads t.sram;
    sn_sram_writes = Memory.writes t.sram;
    sn_failure_spec = Failure.spec t.failure;
    sn_failure = Failure.save t.failure;
    sn_cap_level = t.cap.Capacitor.level;
    sn_cap_pj = t.cap_pj;
    sn_rng = Rng.state t.rng;
    sn_now = t.now;
    sn_on = t.on;
    sn_tag = t.tag;
    sn_boots = t.boots;
    sn_failures = t.failures;
    sn_charges = t.charges;
    sn_critical_depth = t.critical_depth;
    sn_pending_death = t.pending_death;
    sn_total_pj = t.total_pj;
    sn_app_pj = t.app_pj;
    sn_ovh_pj = t.ovh_pj;
    sn_energy_mode = t.energy_mode;
    sn_att_app_us = t.att_app_us;
    sn_att_ovh_us = t.att_ovh_us;
    sn_ev_counts = Array.copy t.ev_counts;
    sn_next_cap = t.next_cap_sample_us;
  }

let restore_snapshot ?failure t sn =
  Memory.restore t.fram sn.sn_fram;
  Memory.restore t.sram sn.sn_sram;
  Memory.set_counters t.fram ~reads:sn.sn_fram_reads ~writes:sn.sn_fram_writes;
  Memory.set_counters t.sram ~reads:sn.sn_sram_reads ~writes:sn.sn_sram_writes;
  t.failure <- Failure.create (Option.value failure ~default:sn.sn_failure_spec);
  Failure.load t.failure sn.sn_failure;
  t.cap.Capacitor.level <- sn.sn_cap_level;
  t.cap_pj <- sn.sn_cap_pj;
  Rng.set_state t.rng sn.sn_rng;
  t.now <- sn.sn_now;
  t.on <- sn.sn_on;
  t.tag <- sn.sn_tag;
  t.boots <- sn.sn_boots;
  t.failures <- sn.sn_failures;
  t.charges <- sn.sn_charges;
  t.critical_depth <- sn.sn_critical_depth;
  t.pending_death <- sn.sn_pending_death;
  t.total_pj <- sn.sn_total_pj;
  t.app_pj <- sn.sn_app_pj;
  t.ovh_pj <- sn.sn_ovh_pj;
  t.energy_mode <- sn.sn_energy_mode;
  t.att_app_us <- sn.sn_att_app_us;
  t.att_ovh_us <- sn.sn_att_ovh_us;
  (if Array.length t.ev_counts = Array.length sn.sn_ev_counts then
     Array.blit sn.sn_ev_counts 0 t.ev_counts 0 (Array.length sn.sn_ev_counts)
   else t.ev_counts <- Array.copy sn.sn_ev_counts);
  t.next_cap_sample_us <- sn.sn_next_cap

(* Convergence key for reboot-space pruning: everything that determines
   future {e decisions and committed values} — memories, RNG, power
   flags, failure latches — but NOT the clock, energy accounting or
   monotone counters (boots/failures/charges, event counts), which
   differ at every reboot point of a sweep yet only shift time-derived
   observations, i.e. exactly the regions apps must declare
   [nv_volatile]. Two snapshots with equal behavior hashes evolve
   identically modulo those declared-volatile columns; the capacitor
   level is also excluded (only consulted in energy-driven failure
   modes, which boundary exploration never uses). *)
let behavior_fold ~fram ~sram ~rng ~on ~tag ~critical_depth ~pending_death ~failure =
  let h = ref 0x811c9dc5 in
  let add v = h := (!h * 0x01000193) lxor v in
  add fram;
  add sram;
  add (Int64.to_int rng);
  add (Bool.to_int on);
  add (match tag with App -> 0 | Overhead -> 1);
  add critical_depth;
  add (Bool.to_int pending_death);
  let deadline, charge_deadline, remaining = failure in
  add deadline;
  add charge_deadline;
  List.iter add remaining;
  !h land max_int

let snapshot_behavior_hash sn =
  behavior_fold ~fram:(Memory.image_hash sn.sn_fram) ~sram:(Memory.image_hash sn.sn_sram)
    ~rng:sn.sn_rng ~on:sn.sn_on ~tag:sn.sn_tag ~critical_depth:sn.sn_critical_depth
    ~pending_death:sn.sn_pending_death ~failure:sn.sn_failure

(* The same two views of the live machine, read in place: prefix-resume
   sweeps key their shared continuations by them and capture only when
   a key is new. *)
let behavior_hash t =
  behavior_fold ~fram:(Memory.hash t.fram) ~sram:(Memory.hash t.sram) ~rng:(Rng.state t.rng)
    ~on:t.on ~tag:t.tag ~critical_depth:t.critical_depth ~pending_death:t.pending_death
    ~failure:(Failure.save t.failure)

let same_behavior t sn =
  Memory.same t.fram sn.sn_fram
  && Memory.same t.sram sn.sn_sram
  && Int64.equal (Rng.state t.rng) sn.sn_rng
  && t.on = sn.sn_on
  && t.tag = sn.sn_tag
  && t.critical_depth = sn.sn_critical_depth
  && t.pending_death = sn.sn_pending_death
  && Failure.save t.failure = sn.sn_failure

let snapshot_charges sn = sn.sn_charges
let snapshot_tag sn = sn.sn_tag
let snapshot_fram sn = sn.sn_fram
let snapshot_sram sn = sn.sn_sram

(* Swap the failure model under a live machine — the resume primitive:
   restore a snapshot taken before boundary [k], then [set_failure
   (Nth_charge k)] to steer the continuation into the k-th boundary.
   Mid-run (the machine has booted), arming here matches what [boot]
   would have done; before the first boot it would be one arm too many
   — [boot] is about to arm, and a double arm draws the RNG twice for
   [Timer] specs, perturbing the stream relative to a machine created
   with the failure latched — so it is left to [boot]. *)
let set_failure t spec =
  let was_energy = t.energy_mode in
  t.failure <- Failure.create spec;
  let energy = Failure.energy_driven t.failure in
  (* across a mode switch the level must be current on the energy side;
     between timer specs nothing is settled, so a resumed run reads the
     same levels as one from power-on *)
  if energy && not was_energy then settle_cap t;
  if was_energy && not energy then t.cap_pj <- t.total_pj;
  t.energy_mode <- energy;
  if t.on && t.boots > 0 then Failure.arm t.failure t.rng ~now:t.now
