(* Bytecode VM for the task language: a lowering of the programs
   [Interp.build] links (checked, transformed under EaseIO, placed in
   memory) into a flat [int array] instruction stream plus operand
   tables, executed by a threaded dispatch loop.

   The contract is strict observational equivalence with the tree-walker
   ([Lang.Interp]), which charges one op at a time and remains the
   conformance oracle: the same charge count, clock, per-tag time and
   energy, memory, step counting, event bumps, trace emissions, error
   strings and [vm/op/*] counters at every point that a failure, an
   error, a trace sink or a meter can observe. Every per-op opcode here
   is justified line-by-line against the corresponding [Interp] clause
   and charges exactly where it does. Between those points the VM may
   apply a straight-line block's charges in one step ([blockify],
   [Machine.charge_block]): energy is counted in integer picojoules, so
   the one-step sums equal the per-op ones, and a block is batched only
   when no failure can strike and no capacitor sample falls due inside
   it; a metered batch adds the block's per-op dispatch counts in one
   step too.

   What the lowering buys:
   - every global access is resolved at compile time to a concrete word
     address (raw globals) or a manager var (Alpaca/InK), every local to
     an int-array slot — no Hashtbl lookup, no name resolution, no
     [Interp.global] dispatch per access;
   - linking (validate, transform, allocation) runs once per (program,
     policy) pair instead of once per run; [reset] rewinds the machine
     arena between runs (see [Machine.reset]). *)

open Platform
open Lang
open Lang.Ast

let step_limit = 20_000_000

(* {1 Operand tables} *)

(* How a global is stored: its [Interp.global] placement, resolved once
   at compile time. [ovh] marks transform-inserted ["__"] state whose raw
   accesses are charged to the overhead bucket ([Interp.is_runtime_name]). *)
type backing =
  | Braw of { space : Memory.space; addr : int; ovh : bool }
  | Bman of Runtimes.Manager.var

type access = { back : backing; words : int; aname : string }

type argspec =
  | Sval  (** evaluated scalar, on the stack *)
  | Sarr_static of Memory.space * int * int  (** raw array: space, addr, words *)
  | Sarr_dyn of int  (** managed array: base addr on the stack (pushed by PUSHLOC), words *)

type callsite = {
  c_impl : Interp.io_impl;
  c_name : string;  (* the .eio I/O function name, for metering *)
  c_specs : argspec array;
  c_npop : int;
}
type dmasite = { d_exclude : bool; d_deps : int array  (** local slots *) }

type t = {
  linked : Interp.t;  (* the program, its layout and runtime, as [Interp.build] linked them *)
  m : Machine.t;  (* the linked machine, manager and runtime, for the dispatch loop *)
  mgr : Runtimes.Manager.t option;
  rt : Easeio.Runtime.t option;
  code : int array;
  task_pcs : int array;  (* entry pc per task, in p_tasks order *)
  accs : access array;
  calls : callsite array;
  dmas : dmasite array;
  strs : string array;
  backs : int array;  (* block take-back records, [back_width] ints each (see [blockify]) *)
  hists : int array;  (* per-block dispatch counts, [len; op; n; ...] each (see [blockify]) *)
  copies : int;  (* where the block copies start, after the per-op code *)
  mutable app : Kernel.Task.app option;
  cur_slot : int;  (* pre-allocated engine task pointer (arena reuse) *)
  (* the reusable machine arena: per-run state, reinitialized by the
     per-attempt prologue / [reset], never reallocated *)
  stack : int array;
  locals : int array;
  regs : int array;
  mutable steps : int;
  (* campaign metering: latched from [Machine.metered] once per run so
     the dispatch loop tests a plain bool, counts flushed to the sheet
     after the run (see [run]); only the per-op code is counted, and a
     batched block adds its per-op code's counts in one step *)
  mutable metered : bool;
  opcounts : int array;  (* per-opcode dispatch counts, length n_ops *)
  callcounts : int array;  (* per-callsite executions, indexed like [calls] *)
  mutable sc_src_space : Memory.space;
  mutable sc_src_addr : int;
  mutable sc_src_room : int;
  mutable sc_dst_space : Memory.space;
  mutable sc_dst_addr : int;
  mutable sc_dst_room : int;
}

let machine t = t.m
let radio t = Interp.radio t.linked
let linked t = t.linked

(* {1 Opcodes}

   Layout: [op; operand...] with per-opcode arity; jumps carry absolute
   code indices. The dispatch loop matches on the literal numbers (a
   dense match compiles to a jump table); keep this table and the match
   arms in [exec] in sync. *)

let o_stmt = 0 (* steps++/limit; cpu 1 — statement head *)
let o_step = 1 (* steps++/limit — eval-node head (Index) *)
let o_pre1 = 2 (* steps++/limit; cpu 1 — eval-node head (Unop/Binop) *)
let o_push = 3 (* k — steps++/limit; push k (Int) *)
let o_pushraw = 4 (* k — push k, no accounting (And/Or joins) *)
let o_ldloc = 5 (* l — steps++/limit; cpu 1; push locals[l] *)
let o_stloc = 6 (* l — cpu 1; locals[l] <- pop *)
let o_ldg = 7 (* a — steps++/limit; charged raw scalar read; push *)
let o_stg = 8 (* a — charged raw scalar write of pop *)
let o_ldgm = 9 (* a — steps++/limit; managed scalar read; push *)
let o_stgm = 10 (* a — managed scalar write of pop *)
let o_lde = 11 (* a — pop i; bounds; charged raw elem read; push *)
let o_ste = 12 (* a — pop v, i; bounds; charged raw elem write *)
let o_ldem = 13 (* a — pop i; bounds; managed elem read; push *)
let o_stem = 14 (* a — pop v, i; bounds; managed elem write *)
let o_jmp = 15 (* p *)
let o_jz = 16 (* p — pop; jump if 0 *)
let o_jnz = 17 (* p — pop; jump if <> 0 *)
let o_tobool = 18 (* pop x; push (x <> 0) *)
let o_add = 19
let o_sub = 20
let o_mul = 21
let o_div = 22
let o_mod = 23
let o_eq = 24
let o_ne = 25
let o_lt = 26
let o_le = 27
let o_gt = 28
let o_ge = 29
let o_neg = 30
let o_not = 31
let o_gettime = 32 (* steps++/limit; Overhead-tagged Timekeeper.read; push *)
let o_forsetup = 33 (* r — pop hi, lo into regs[r+1], regs[r] *)
let o_pushreg = 34 (* r — push regs[r], no accounting *)
let o_fortest = 35 (* r p — if regs[r] > regs[r+1] jump p *)
let o_forincr = 36 (* r — regs[r]++ *)
let o_call = 37 (* c — pop per spec; run impl; push result *)
let o_pop = 38
let o_fail = 39 (* s — raise Ast.Error strs[s] *)
let o_next = 40 (* s — transition Next strs[s] *)
let o_stop = 41 (* transition Stop *)
let o_pushloc = 42 (* a — push (Manager.raw_loc).addr — charged for InK-privatized *)
let o_rsrc = 43 (* a — pop off; bounds; set src scratch from static base *)
let o_rsrcd = 44 (* a — pop off, base; bounds; set src scratch (FRAM) *)
let o_rdst = 45 (* a — pop off; bounds; set dst scratch from static base *)
let o_rdstd = 46 (* a — pop off, base; bounds; set dst scratch (FRAM) *)
let o_dmago = 47 (* d — pop words; bounds; run the transfer *)
let o_cpygo = 48 (* pop words; bounds; Overhead word-copy loop *)
let o_seal = 49 (* Easeio.Runtime.seal_dmas (no-op under baselines) *)

(* Block ops, placed by [blockify] after lowering. BLOCK heads a
   straight-line block of the per-op code above and either applies the
   whole block's charges and steps and runs its uncharged copy, or falls
   through to the per-op code. The U* ops appear in copies only: the
   per-op semantics minus steps and charges; the ones that can raise
   first take back the part of the block not reached (record k). *)
let o_block = 50 (* n steps us pj ovh_us ovh_pj copy hist — see [blockify] *)
let o_uldloc = 51 (* l *)
let o_ustloc = 52 (* l *)
let o_uldg = 53 (* a *)
let o_ustg = 54 (* a *)
let o_ulde = 55 (* a k *)
let o_uste = 56 (* a k *)
let o_udiv = 57 (* k *)
let o_umod = 58 (* k *)

(* opcodes with a [vm/op/*] counter: the per-op ISA (0–49); block ops
   stay out of the counters *)
let n_ops = 50
let n_codes = o_umod + 1

(* Keep in sync with the opcode table above; index = opcode. *)
let op_names =
  [|
    "stmt"; "step"; "pre1"; "push"; "pushraw"; "ldloc"; "stloc"; "ldg"; "stg"; "ldgm";
    "stgm"; "lde"; "ste"; "ldem"; "stem"; "jmp"; "jz"; "jnz"; "tobool"; "add";
    "sub"; "mul"; "div"; "mod"; "eq"; "ne"; "lt"; "le"; "gt"; "ge";
    "neg"; "not"; "gettime"; "forsetup"; "pushreg"; "fortest"; "forincr"; "call"; "pop"; "fail";
    "next"; "stop"; "pushloc"; "rsrc"; "rsrcd"; "rdst"; "rdstd"; "dmago"; "cpygo"; "seal";
  |]

let () = assert (Array.length op_names = n_ops)

(* "vm/op/<name>" counter ids, interned once at module init. *)
let vm_op_ids = Array.map (fun n -> Obs.Registry.counter ("vm/op/" ^ n)) op_names

(* {1 Dispatch loop} *)

let[@inline] bump_step t =
  t.steps <- t.steps + 1;
  if t.steps > step_limit then error "step limit exceeded (infinite loop?)"

(* Single charged access under the Overhead tag, restoring the caller's
   tag even on Power_failure (as [Interp.ovh_if]'s Fun.protect does). *)
let ovh_read m space addr =
  let saved = Machine.tag m in
  Machine.set_tag m Machine.Overhead;
  match Machine.read m space addr with
  | v ->
      Machine.set_tag m saved;
      v
  | exception e ->
      Machine.set_tag m saved;
      raise e

let ovh_write m space addr v =
  let saved = Machine.tag m in
  Machine.set_tag m Machine.Overhead;
  match Machine.write m space addr v with
  | () -> Machine.set_tag m saved
  | exception e ->
      Machine.set_tag m saved;
      raise e

let[@inline] check_index i { words; aname; _ } =
  if i < 0 || i >= words then error "index %d out of bounds for %s[%d]" i aname words

let[@inline] check_offset off { words; aname; _ } =
  if off < 0 || off > words then error "offset %d out of bounds for %s[%d]" off aname words

(* A take-back record: the charge count, steps, µs and picojoules of
   the ops of a block from one that raises to the block's end (layout:
   [sum_ops]). *)
let back_width = 6

(* An error inside a block copy: undo the part of the block's one-step
   charge that the per-op code would not have reached, so the error is
   observed at the same charge count, clock and energy. A run that
   raises flushes no dispatch counts, so those need no take-back. *)
let take_back t k =
  let b = t.backs and o = k * back_width in
  t.steps <- t.steps - b.(o + 1);
  Machine.charge_block t.m ~n:(-b.(o)) ~us:(-b.(o + 2)) ~pj:(-b.(o + 3)) ~ovh_us:(-b.(o + 4))
    ~ovh_pj:(-b.(o + 5))

(* A metered batch: add the dispatch counts of the per-op code the
   batch skips, from the block's record at [h] in [hists]. *)
let[@inline never] count_block t h =
  let hs = t.hists and oc = t.opcounts in
  for i = 1 to hs.(h) do
    let op = hs.(h + (2 * i) - 1) in
    oc.(op) <- oc.(op) + hs.(h + (2 * i))
  done

let exec t pc0 =
  let code = t.code
  and stack = t.stack
  and locals = t.locals
  and regs = t.regs
  and m = t.m in
  let rec go pc sp =
    let op = code.(pc) in
    (* one well-predicted branch per dispatch when off; counting when
       on stays out of the simulated cost model entirely, and skips the
       block copies, whose BLOCK counted their per-op code *)
    if t.metered && pc < t.copies then begin
      t.opcounts.(op) <- t.opcounts.(op) + 1;
      if op = 37 (* CALL *) then
        t.callcounts.(code.(pc + 1)) <- t.callcounts.(code.(pc + 1)) + 1
    end;
    match op with
    | 0 (* STMT *) ->
        bump_step t;
        Machine.cpu m 1;
        go (pc + 1) sp
    | 1 (* STEP *) ->
        bump_step t;
        go (pc + 1) sp
    | 2 (* PRE1 *) ->
        bump_step t;
        Machine.cpu m 1;
        go (pc + 1) sp
    | 3 (* PUSH *) ->
        bump_step t;
        stack.(sp) <- code.(pc + 1);
        go (pc + 2) (sp + 1)
    | 4 (* PUSHRAW *) ->
        stack.(sp) <- code.(pc + 1);
        go (pc + 2) (sp + 1)
    | 5 (* LDLOC *) ->
        bump_step t;
        Machine.cpu m 1;
        stack.(sp) <- locals.(code.(pc + 1));
        go (pc + 2) (sp + 1)
    | 6 (* STLOC *) ->
        Machine.cpu m 1;
        locals.(code.(pc + 1)) <- stack.(sp - 1);
        go (pc + 2) (sp - 1)
    | 7 (* LDG *) ->
        bump_step t;
        let a = t.accs.(code.(pc + 1)) in
        (match a.back with
        | Braw { space; addr; ovh } ->
            stack.(sp) <- (if ovh then ovh_read m space addr else Machine.read m space addr)
        | Bman _ -> assert false);
        go (pc + 2) (sp + 1)
    | 8 (* STG *) ->
        let a = t.accs.(code.(pc + 1)) in
        let v = stack.(sp - 1) in
        (match a.back with
        | Braw { space; addr; ovh } ->
            if ovh then ovh_write m space addr v else Machine.write m space addr v
        | Bman _ -> assert false);
        go (pc + 2) (sp - 1)
    | 9 (* LDGM *) ->
        bump_step t;
        let a = t.accs.(code.(pc + 1)) in
        (match a.back with
        | Bman v -> stack.(sp) <- Runtimes.Manager.read (Option.get t.mgr) v 0
        | Braw _ -> assert false);
        go (pc + 2) (sp + 1)
    | 10 (* STGM *) ->
        let a = t.accs.(code.(pc + 1)) in
        let x = stack.(sp - 1) in
        (match a.back with
        | Bman v -> Runtimes.Manager.write (Option.get t.mgr) v 0 x
        | Braw _ -> assert false);
        go (pc + 2) (sp - 1)
    | 11 (* LDE *) ->
        let a = t.accs.(code.(pc + 1)) in
        let i = stack.(sp - 1) in
        check_index i a;
        (match a.back with
        | Braw { space; addr; ovh } ->
            stack.(sp - 1) <-
              (if ovh then ovh_read m space (addr + i) else Machine.read m space (addr + i))
        | Bman _ -> assert false);
        go (pc + 2) sp
    | 12 (* STE *) ->
        let a = t.accs.(code.(pc + 1)) in
        let v = stack.(sp - 1) and i = stack.(sp - 2) in
        check_index i a;
        (match a.back with
        | Braw { space; addr; ovh } ->
            if ovh then ovh_write m space (addr + i) v else Machine.write m space (addr + i) v
        | Bman _ -> assert false);
        go (pc + 2) (sp - 2)
    | 13 (* LDEM *) ->
        let a = t.accs.(code.(pc + 1)) in
        let i = stack.(sp - 1) in
        check_index i a;
        (match a.back with
        | Bman v -> stack.(sp - 1) <- Runtimes.Manager.read (Option.get t.mgr) v i
        | Braw _ -> assert false);
        go (pc + 2) sp
    | 14 (* STEM *) ->
        let a = t.accs.(code.(pc + 1)) in
        let v = stack.(sp - 1) and i = stack.(sp - 2) in
        check_index i a;
        (match a.back with
        | Bman var -> Runtimes.Manager.write (Option.get t.mgr) var i v
        | Braw _ -> assert false);
        go (pc + 2) (sp - 2)
    | 15 (* JMP *) -> go code.(pc + 1) sp
    | 16 (* JZ *) -> if stack.(sp - 1) = 0 then go code.(pc + 1) (sp - 1) else go (pc + 2) (sp - 1)
    | 17 (* JNZ *) ->
        if stack.(sp - 1) <> 0 then go code.(pc + 1) (sp - 1) else go (pc + 2) (sp - 1)
    | 18 (* TOBOOL *) ->
        stack.(sp - 1) <- (if stack.(sp - 1) <> 0 then 1 else 0);
        go (pc + 1) sp
    | 19 (* ADD *) ->
        stack.(sp - 2) <- stack.(sp - 2) + stack.(sp - 1);
        go (pc + 1) (sp - 1)
    | 20 (* SUB *) ->
        stack.(sp - 2) <- stack.(sp - 2) - stack.(sp - 1);
        go (pc + 1) (sp - 1)
    | 21 (* MUL *) ->
        stack.(sp - 2) <- stack.(sp - 2) * stack.(sp - 1);
        go (pc + 1) (sp - 1)
    | 22 (* DIV *) ->
        let y = stack.(sp - 1) in
        if y = 0 then error "division by zero";
        stack.(sp - 2) <- stack.(sp - 2) / y;
        go (pc + 1) (sp - 1)
    | 23 (* MOD *) ->
        let y = stack.(sp - 1) in
        if y = 0 then error "modulo by zero";
        stack.(sp - 2) <- stack.(sp - 2) mod y;
        go (pc + 1) (sp - 1)
    | 24 (* EQ *) ->
        stack.(sp - 2) <- (if stack.(sp - 2) = stack.(sp - 1) then 1 else 0);
        go (pc + 1) (sp - 1)
    | 25 (* NE *) ->
        stack.(sp - 2) <- (if stack.(sp - 2) <> stack.(sp - 1) then 1 else 0);
        go (pc + 1) (sp - 1)
    | 26 (* LT *) ->
        stack.(sp - 2) <- (if stack.(sp - 2) < stack.(sp - 1) then 1 else 0);
        go (pc + 1) (sp - 1)
    | 27 (* LE *) ->
        stack.(sp - 2) <- (if stack.(sp - 2) <= stack.(sp - 1) then 1 else 0);
        go (pc + 1) (sp - 1)
    | 28 (* GT *) ->
        stack.(sp - 2) <- (if stack.(sp - 2) > stack.(sp - 1) then 1 else 0);
        go (pc + 1) (sp - 1)
    | 29 (* GE *) ->
        stack.(sp - 2) <- (if stack.(sp - 2) >= stack.(sp - 1) then 1 else 0);
        go (pc + 1) (sp - 1)
    | 30 (* NEG *) ->
        stack.(sp - 1) <- -stack.(sp - 1);
        go (pc + 1) sp
    | 31 (* NOT *) ->
        stack.(sp - 1) <- (if stack.(sp - 1) = 0 then 1 else 0);
        go (pc + 1) sp
    | 32 (* GETTIME *) ->
        bump_step t;
        let saved = Machine.tag m in
        Machine.set_tag m Machine.Overhead;
        let v =
          match Timekeeper.read m with
          | v ->
              Machine.set_tag m saved;
              v
          | exception e ->
              Machine.set_tag m saved;
              raise e
        in
        stack.(sp) <- v;
        go (pc + 1) (sp + 1)
    | 33 (* FORSETUP *) ->
        let r = code.(pc + 1) in
        regs.(r + 1) <- stack.(sp - 1);
        regs.(r) <- stack.(sp - 2);
        go (pc + 2) (sp - 2)
    | 34 (* PUSHREG *) ->
        stack.(sp) <- regs.(code.(pc + 1));
        go (pc + 2) (sp + 1)
    | 35 (* FORTEST *) ->
        let r = code.(pc + 1) in
        if regs.(r) > regs.(r + 1) then go code.(pc + 2) sp else go (pc + 3) sp
    | 36 (* FORINCR *) ->
        let r = code.(pc + 1) in
        regs.(r) <- regs.(r) + 1;
        go (pc + 2) sp
    | 37 (* CALL *) ->
        let cs = t.calls.(code.(pc + 1)) in
        let base = sp - cs.c_npop in
        (* stack slots base..sp-1 hold the evaluated Sval / Sarr_dyn
           operands in spec order *)
        let rec build i si =
          if i = Array.length cs.c_specs then []
          else
            match cs.c_specs.(i) with
            | Sval -> Interp.Val stack.(si) :: build (i + 1) (si + 1)
            | Sarr_static (space, addr, words) ->
                Interp.Arr ({ Loc.space; addr }, words) :: build (i + 1) si
            | Sarr_dyn words -> Interp.Arr (Loc.fram stack.(si), words) :: build (i + 1) (si + 1)
        in
        let args = build 0 base in
        let v = cs.c_impl m args in
        stack.(base) <- v;
        go (pc + 2) (base + 1)
    | 38 (* POP *) -> go (pc + 1) (sp - 1)
    | 39 (* FAIL *) -> raise (Error t.strs.(code.(pc + 1)))
    | 40 (* NEXT *) -> Kernel.Task.Next t.strs.(code.(pc + 1))
    | 41 (* STOP *) -> Kernel.Task.Stop
    | 42 (* PUSHLOC *) ->
        let a = t.accs.(code.(pc + 1)) in
        (match a.back with
        | Bman v -> stack.(sp) <- (Runtimes.Manager.raw_loc (Option.get t.mgr) v).Loc.addr
        | Braw _ -> assert false);
        go (pc + 2) (sp + 1)
    | 43 (* RSRC *) ->
        let a = t.accs.(code.(pc + 1)) in
        let off = stack.(sp - 1) in
        check_offset off a;
        (match a.back with
        | Braw { space; addr; _ } ->
            t.sc_src_space <- space;
            t.sc_src_addr <- addr + off
        | Bman _ -> assert false);
        t.sc_src_room <- a.words - off;
        go (pc + 2) (sp - 1)
    | 44 (* RSRCD *) ->
        let a = t.accs.(code.(pc + 1)) in
        let off = stack.(sp - 1) and base = stack.(sp - 2) in
        check_offset off a;
        t.sc_src_space <- Memory.Fram;
        t.sc_src_addr <- base + off;
        t.sc_src_room <- a.words - off;
        go (pc + 2) (sp - 2)
    | 45 (* RDST *) ->
        let a = t.accs.(code.(pc + 1)) in
        let off = stack.(sp - 1) in
        check_offset off a;
        (match a.back with
        | Braw { space; addr; _ } ->
            t.sc_dst_space <- space;
            t.sc_dst_addr <- addr + off
        | Bman _ -> assert false);
        t.sc_dst_room <- a.words - off;
        go (pc + 2) (sp - 1)
    | 46 (* RDSTD *) ->
        let a = t.accs.(code.(pc + 1)) in
        let off = stack.(sp - 1) and base = stack.(sp - 2) in
        check_offset off a;
        t.sc_dst_space <- Memory.Fram;
        t.sc_dst_addr <- base + off;
        t.sc_dst_room <- a.words - off;
        go (pc + 2) (sp - 2)
    | 47 (* DMAGO *) ->
        let words = stack.(sp - 1) in
        if words < 0 then error "dma_copy: negative length %d" words;
        if words > t.sc_src_room || words > t.sc_dst_room then error "dma_copy out of bounds";
        let src = { Loc.space = t.sc_src_space; addr = t.sc_src_addr } in
        let dst = { Loc.space = t.sc_dst_space; addr = t.sc_dst_addr } in
        (match t.rt with
        | None -> Periph.Dma.copy m ~src ~dst ~words
        | Some rt ->
            let d = t.dmas.(code.(pc + 1)) in
            let force = ref false in
            Array.iter (fun slot -> if locals.(slot) <> 0 then force := true) d.d_deps;
            Easeio.Runtime.dma_copy ~exclude:d.d_exclude ~force:!force rt ~src ~dst ~words);
        go (pc + 2) (sp - 1)
    | 48 (* CPYGO *) ->
        let words = stack.(sp - 1) in
        if words < 0 then error "memcpy: negative length %d" words;
        if words > t.sc_dst_room || words > t.sc_src_room then error "memcpy out of bounds";
        let saved = Machine.tag m in
        Machine.set_tag m Machine.Overhead;
        (try
           for i = 0 to words - 1 do
             Machine.write m t.sc_dst_space (t.sc_dst_addr + i)
               (Machine.read m t.sc_src_space (t.sc_src_addr + i))
           done
         with e ->
           Machine.set_tag m saved;
           raise e);
        Machine.set_tag m saved;
        go (pc + 1) (sp - 1)
    | 49 (* SEAL *) ->
        (match t.rt with Some rt -> Easeio.Runtime.seal_dmas rt | None -> ());
        go (pc + 1) sp
    | 50 (* BLOCK *) ->
        let n = code.(pc + 1) and steps = code.(pc + 2) in
        let us = code.(pc + 3) and ovh_us = code.(pc + 5) in
        if t.steps + steps <= step_limit && Machine.batchable m ~n ~us:(us + ovh_us) then begin
          t.steps <- t.steps + steps;
          Machine.charge_block m ~n ~us ~pj:code.(pc + 4) ~ovh_us ~ovh_pj:code.(pc + 6);
          if t.metered then count_block t code.(pc + 8);
          go code.(pc + 7) sp
        end
        else go (pc + 9) sp
    | 51 (* ULDLOC *) ->
        stack.(sp) <- locals.(code.(pc + 1));
        go (pc + 2) (sp + 1)
    | 52 (* USTLOC *) ->
        locals.(code.(pc + 1)) <- stack.(sp - 1);
        go (pc + 2) (sp - 1)
    | 53 (* ULDG *) ->
        (match t.accs.(code.(pc + 1)).back with
        | Braw { space; addr; _ } -> stack.(sp) <- Memory.read (Machine.mem m space) addr
        | Bman _ -> assert false);
        go (pc + 2) (sp + 1)
    | 54 (* USTG *) ->
        (match t.accs.(code.(pc + 1)).back with
        | Braw { space; addr; _ } -> Memory.write (Machine.mem m space) addr stack.(sp - 1)
        | Bman _ -> assert false);
        go (pc + 2) (sp - 1)
    | 55 (* ULDE *) ->
        let a = t.accs.(code.(pc + 1)) in
        let i = stack.(sp - 1) in
        if i < 0 || i >= a.words then begin
          take_back t code.(pc + 2);
          check_index i a
        end;
        (match a.back with
        | Braw { space; addr; _ } -> stack.(sp - 1) <- Memory.read (Machine.mem m space) (addr + i)
        | Bman _ -> assert false);
        go (pc + 3) sp
    | 56 (* USTE *) ->
        let a = t.accs.(code.(pc + 1)) in
        let v = stack.(sp - 1) and i = stack.(sp - 2) in
        if i < 0 || i >= a.words then begin
          take_back t code.(pc + 2);
          check_index i a
        end;
        (match a.back with
        | Braw { space; addr; _ } -> Memory.write (Machine.mem m space) (addr + i) v
        | Bman _ -> assert false);
        go (pc + 3) (sp - 2)
    | 57 (* UDIV *) ->
        let y = stack.(sp - 1) in
        if y = 0 then begin
          take_back t code.(pc + 1);
          error "division by zero"
        end;
        stack.(sp - 2) <- stack.(sp - 2) / y;
        go (pc + 2) (sp - 1)
    | 58 (* UMOD *) ->
        let y = stack.(sp - 1) in
        if y = 0 then begin
          take_back t code.(pc + 1);
          error "modulo by zero"
        end;
        stack.(sp - 2) <- stack.(sp - 2) mod y;
        go (pc + 2) (sp - 1)
    | op -> Printf.ksprintf failwith "Vm.exec: bad opcode %d at pc %d" op pc
  in
  go pc0 0

(* {1 Compiler} *)

(* growable code buffer *)
type buf = { mutable b : int array; mutable len : int }

let buf_create () = { b = Array.make 256 0; len = 0 }

let emit buf x =
  if buf.len = Array.length buf.b then begin
    let bigger = Array.make (2 * Array.length buf.b) 0 in
    Array.blit buf.b 0 bigger 0 buf.len;
    buf.b <- bigger
  end;
  buf.b.(buf.len) <- x;
  buf.len <- buf.len + 1

(* append-only operand tables with dedup where keys allow it *)
type 'a tbl = { mutable items : 'a list; mutable n : int }

let tbl_create () = { items = []; n = 0 }

let tbl_add tbl x =
  tbl.items <- x :: tbl.items;
  tbl.n <- tbl.n + 1;
  tbl.n - 1

let tbl_to_array tbl = Array.of_list (List.rev tbl.items)

type ctx = {
  cb : buf;
  xaccs : access tbl;
  acc_ids : (string, int * access) Hashtbl.t;  (* global name -> accs index *)
  xcalls : callsite tbl;
  xdmas : dmasite tbl;
  xstrs : string tbl;
  str_ids : (string, int) Hashtbl.t;
  local_ids : (string, int) Hashtbl.t;
  mutable n_locals : int;
  mutable n_regs : int;
  linked : Interp.t;
}

let op1 ctx o = emit ctx.cb o

let op2 ctx o x =
  emit ctx.cb o;
  emit ctx.cb x

let here ctx = ctx.cb.len

(* emit [o 0] and return the operand slot index for backpatching *)
let hole ctx o =
  emit ctx.cb o;
  emit ctx.cb 0;
  ctx.cb.len - 1

let patch ctx at = ctx.cb.b.(at) <- here ctx

let str_id ctx s =
  match Hashtbl.find_opt ctx.str_ids s with
  | Some i -> i
  | None ->
      let i = tbl_add ctx.xstrs s in
      Hashtbl.add ctx.str_ids s i;
      i

let acc_id ctx name =
  match Hashtbl.find_opt ctx.acc_ids name with
  | Some ia -> Some ia
  | None -> (
      match Interp.global ctx.linked name with
      | None -> None
      | Some g ->
          let back, words =
            match g with
            | Interp.Raw ({ Loc.space; addr }, words) ->
                (Braw { space; addr; ovh = Interp.is_runtime_name name }, words)
            | Interp.Managed (v, words) -> (Bman v, words)
          in
          let a = { back; words; aname = name } in
          let i = tbl_add ctx.xaccs a in
          Hashtbl.add ctx.acc_ids name (i, a);
          Some (i, a))

let local_slot ctx name =
  match Hashtbl.find_opt ctx.local_ids name with
  | Some s -> s
  | None ->
      let s = ctx.n_locals in
      Hashtbl.add ctx.local_ids name s;
      ctx.n_locals <- ctx.n_locals + 1;
      s

(* store the value on top of the stack into scalar [name]; mirrors
   [Interp.write_scalar]'s three-way resolution *)
let cstore ctx name =
  match acc_id ctx name with
  | Some (i, { back = Braw _; _ }) -> op2 ctx o_stg i
  | Some (i, { back = Bman _; _ }) -> op2 ctx o_stgm i
  | None -> op2 ctx o_stloc (local_slot ctx name)

let rec cexpr ctx e =
  match e with
  | Int n -> op2 ctx o_push n
  | Var name -> (
      match acc_id ctx name with
      | Some (i, { back = Braw _; _ }) -> op2 ctx o_ldg i
      | Some (i, { back = Bman _; _ }) -> op2 ctx o_ldgm i
      | None -> op2 ctx o_ldloc (local_slot ctx name))
  | Index (name, i) -> (
      op1 ctx o_step;
      cexpr ctx i;
      match acc_id ctx name with
      | Some (a, { back = Braw _; _ }) -> op2 ctx o_lde a
      | Some (a, { back = Bman _; _ }) -> op2 ctx o_ldem a
      | None -> op2 ctx o_fail (str_id ctx (Printf.sprintf "unknown array %s" name)))
  | Unop (Neg, e) ->
      op1 ctx o_pre1;
      cexpr ctx e;
      op1 ctx o_neg
  | Unop (Not, e) ->
      op1 ctx o_pre1;
      cexpr ctx e;
      op1 ctx o_not
  | Binop (And, a, b) ->
      op1 ctx o_pre1;
      cexpr ctx a;
      let jz = hole ctx o_jz in
      cexpr ctx b;
      op1 ctx o_tobool;
      let jend = hole ctx o_jmp in
      patch ctx jz;
      op2 ctx o_pushraw 0;
      patch ctx jend
  | Binop (Or, a, b) ->
      op1 ctx o_pre1;
      cexpr ctx a;
      let jnz = hole ctx o_jnz in
      cexpr ctx b;
      op1 ctx o_tobool;
      let jend = hole ctx o_jmp in
      patch ctx jnz;
      op2 ctx o_pushraw 1;
      patch ctx jend
  | Binop (op, a, b) ->
      op1 ctx o_pre1;
      cexpr ctx a;
      cexpr ctx b;
      op1 ctx
        (match op with
        | Add -> o_add
        | Sub -> o_sub
        | Mul -> o_mul
        | Div -> o_div
        | Mod -> o_mod
        | Eq -> o_eq
        | Ne -> o_ne
        | Lt -> o_lt
        | Le -> o_le
        | Gt -> o_gt
        | Ge -> o_ge
        | And | Or -> assert false)
  | Get_time -> op1 ctx o_gettime

(* compile one [mem_ref]; returns false when the array is unknown (a
   FAIL was emitted — the rest of the statement is unreachable, exactly
   as the tree-walker raises from [loc_words] before evaluating the
   offset) *)
let cmemref ctx { ref_arr; ref_off } ~static_op ~dyn_op =
  match acc_id ctx ref_arr with
  | None ->
      op2 ctx o_fail
        (str_id ctx (Printf.sprintf "unknown array %s (peripherals need declared globals)" ref_arr));
      false
  | Some (a, { back = Braw _; _ }) ->
      cexpr ctx ref_off;
      op2 ctx static_op a;
      true
  | Some (a, { back = Bman _; _ }) ->
      op2 ctx o_pushloc a;
      cexpr ctx ref_off;
      op2 ctx dyn_op a;
      true

let ccall ctx (c : call_io) =
  match Interp.io ctx.linked c.io with
  | None -> op2 ctx o_fail (str_id ctx (Printf.sprintf "unknown I/O function %s" c.io))
  | Some impl ->
      let specs = ref [] and npop = ref 0 and aborted = ref false in
      List.iter
        (fun arg ->
          if not !aborted then
            match arg with
            | Aexpr e ->
                cexpr ctx e;
                incr npop;
                specs := Sval :: !specs
            | Aarr name -> (
                match acc_id ctx name with
                | Some (_, { back = Braw { space; addr; _ }; words; _ }) ->
                    specs := Sarr_static (space, addr, words) :: !specs
                | Some (a, { back = Bman _; words; _ }) ->
                    op2 ctx o_pushloc a;
                    incr npop;
                    specs := Sarr_dyn words :: !specs
                | None ->
                    op2 ctx o_fail
                      (str_id ctx
                         (Printf.sprintf "unknown array %s (peripherals need declared globals)"
                            name));
                    aborted := true))
        c.args;
      if not !aborted then begin
        let site =
          { c_impl = impl; c_name = c.io; c_specs = Array.of_list (List.rev !specs); c_npop = !npop }
        in
        op2 ctx o_call (tbl_add ctx.xcalls site);
        match c.target with Some tgt -> cstore ctx tgt | None -> op1 ctx o_pop
      end

let rec cstmts ctx stmts = List.iter (cstmt ctx) stmts

and cstmt ctx st =
  op1 ctx o_stmt;
  match st.s with
  | Assign (v, e) ->
      cexpr ctx e;
      cstore ctx v
  | Store (name, i, e) -> (
      cexpr ctx i;
      cexpr ctx e;
      match acc_id ctx name with
      | Some (a, { back = Braw _; _ }) -> op2 ctx o_ste a
      | Some (a, { back = Bman _; _ }) -> op2 ctx o_stem a
      | None -> op2 ctx o_fail (str_id ctx (Printf.sprintf "unknown array %s" name)))
  | If (c, a, b) -> (
      cexpr ctx c;
      let jz = hole ctx o_jz in
      cstmts ctx a;
      match b with
      | [] -> patch ctx jz
      | _ ->
          let jend = hole ctx o_jmp in
          patch ctx jz;
          cstmts ctx b;
          patch ctx jend)
  | While (c, b) ->
      let top = here ctx in
      cexpr ctx c;
      let jz = hole ctx o_jz in
      cstmts ctx b;
      op2 ctx o_jmp top;
      patch ctx jz
  | For (v, lo, hi, b) ->
      let r = ctx.n_regs in
      ctx.n_regs <- ctx.n_regs + 2;
      cexpr ctx lo;
      cexpr ctx hi;
      op2 ctx o_forsetup r;
      op2 ctx o_pushreg r;
      cstore ctx v;
      let test = here ctx in
      emit ctx.cb o_fortest;
      emit ctx.cb r;
      emit ctx.cb 0;
      let jend = ctx.cb.len - 1 in
      cstmts ctx b;
      op2 ctx o_forincr r;
      op2 ctx o_pushreg r;
      cstore ctx v;
      op2 ctx o_jmp test;
      patch ctx jend
  | Call_io c -> ccall ctx c
  | Io_block { blk_body; _ } -> cstmts ctx blk_body
  | Dma d ->
      cexpr ctx d.dma_words;
      if cmemref ctx d.dma_src ~static_op:o_rsrc ~dyn_op:o_rsrcd then
        if cmemref ctx d.dma_dst ~static_op:o_rdst ~dyn_op:o_rdstd then begin
          let deps = Array.of_list (List.map (local_slot ctx) d.dma_deps) in
          op2 ctx o_dmago (tbl_add ctx.xdmas { d_exclude = d.exclude; d_deps = deps })
        end
  | Memcpy { cp_dst; cp_src; cp_words } ->
      cexpr ctx cp_words;
      if cmemref ctx cp_dst ~static_op:o_rdst ~dyn_op:o_rdstd then
        if cmemref ctx cp_src ~static_op:o_rsrc ~dyn_op:o_rsrcd then op1 ctx o_cpygo
  | Seal_dmas -> op1 ctx o_seal
  | Next name -> op2 ctx o_next (str_id ctx name)
  | Stop -> op1 ctx o_stop

(* conservative per-statement stack bound: every value-pushing node of
   the statement's own expressions, plus slack for resolver scratch;
   nested statements run with an empty stack, so the per-statement
   maximum over [iter_stmts] bounds the whole task *)
let rec esize = function
  | Int _ | Var _ | Get_time -> 1
  | Index (_, i) -> esize i + 1
  | Unop (_, e) -> esize e + 1
  | Binop (_, a, b) -> esize a + esize b + 1

let own_stack st =
  match st.s with
  | Assign (_, e) -> esize e
  | Store (_, i, e) -> esize i + esize e
  | If (c, _, _) -> esize c
  | While (c, _) -> esize c
  | For (_, lo, hi, _) -> esize lo + esize hi + 2
  | Call_io c ->
      List.fold_left
        (fun acc -> function Aexpr e -> acc + esize e | Aarr _ -> acc + 1)
        1 c.args
  | Dma d -> esize d.dma_words + esize d.dma_src.ref_off + esize d.dma_dst.ref_off + 4
  | Memcpy c -> esize c.cp_words + esize c.cp_dst.ref_off + esize c.cp_src.ref_off + 4
  | Io_block _ | Seal_dmas | Next _ | Stop -> 0

let max_stack prog =
  let mx = ref 8 in
  List.iter
    (fun task -> iter_stmts (fun st -> mx := max !mx (own_stack st + 8)) task.t_body)
    prog.p_tasks;
  !mx

(* {1 Blocks}

   A block is a maximal straight-line run of the per-op code whose
   charges are known at lowering — CPU ops and raw global or element
   accesses — entered only at its head and optionally ended by a branch.
   [blockify] rewrites the lowered code: each block with at least
   [min_block_charges] charges gets a BLOCK op in front of it, carrying
   the block's charge count, steps, and µs and picojoules split into
   current-tag and Overhead parts, the offset of its per-op dispatch
   counts in [hists], and an uncharged copy of it appended after the
   per-op code. When the failure model cannot fire inside the block,
   the machine is in a timer mode, no capacitor sample falls due inside
   it ([Machine.batchable]) and the step budget covers it, BLOCK applies
   the sums in one [Machine.charge_block], adds the dispatch counts if
   the run is metered, and jumps to the copy; otherwise it falls through
   to the per-op code, which this pass leaves as it was. Integer
   picojoules make the one-step sums equal the per-op ones, so the two
   paths agree at every point a failure, error, sink or meter can
   observe. *)

let min_block_charges = 2

(* instruction width per per-op opcode (0–49) *)
let width = function
  | 35 -> 3
  | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12 | 13 | 14 | 15 | 16 | 17 | 33 | 34 | 36 | 37 | 39 | 40
  | 42 | 43 | 44 | 45 | 46 | 47 ->
      2
  | _ -> 1

(* JMP JZ JNZ FORTEST, and where each keeps its target *)
let is_branch op = op = 15 || op = 16 || op = 17 || op = 35
let target_at op pc = if op = 35 then pc + 2 else pc + 1

(* ops a block may hold besides its closing branch: statically charged
   or uncharged, and with no effect beyond the stack, locals, loop
   registers and raw memory *)
let in_block = function
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 11 | 12 | 18 | 19 | 20 | 21 | 22 | 23 | 24 | 25 | 26 | 27
  | 28 | 29 | 30 | 31 | 33 | 34 | 36 | 38 ->
      true
  | _ -> false

(* The steps and charges of the ops in [pc, stop) — what their arms in
   [exec] do through [bump_step] and [Machine] — laid out as a BLOCK's
   operands and a take-back record: [n; steps; us; pj; ovh_us; ovh_pj],
   with us/pj charged under the current tag and ovh_* under Overhead. *)
let sum_ops (c : Cost.t) accs code pc stop =
  let s = Array.make back_width 0 in
  let bump i x = s.(i) <- s.(i) + x in
  let charge ~ovh (oc : Cost.op_cost) =
    bump 0 1;
    bump (if ovh then 4 else 2) oc.time_us;
    bump (if ovh then 5 else 3) oc.energy_pj
  in
  let rec go pc =
    if pc < stop then begin
      let access ~read =
        match accs.(code.(pc + 1)).back with
        | Braw { space = Memory.Fram; ovh; _ } -> charge ~ovh (if read then c.fram_read else c.fram_write)
        | Braw { space = Memory.Sram; ovh; _ } -> charge ~ovh (if read then c.sram_read else c.sram_write)
        | Bman _ -> assert false
      in
      (match code.(pc) with
      | 0 (* STMT *) | 2 (* PRE1 *) | 5 (* LDLOC *) ->
          bump 1 1;
          charge ~ovh:false c.cpu_op
      | 1 (* STEP *) | 3 (* PUSH *) -> bump 1 1
      | 6 (* STLOC *) -> charge ~ovh:false c.cpu_op
      | 7 (* LDG *) ->
          bump 1 1;
          access ~read:true
      | 11 (* LDE *) -> access ~read:true
      | 8 (* STG *) | 12 (* STE *) -> access ~read:false
      | _ -> ());
      go (pc + width code.(pc))
    end
  in
  go pc;
  s

let blockify c accs code task_pcs =
  let len = Array.length code in
  let fold f acc =
    let rec go pc acc = if pc >= len then acc else go (pc + width code.(pc)) (f pc acc) in
    go 0 acc
  in
  (* leaders: task entries, branch targets and the code after a branch *)
  let leader = Array.make (len + 1) false in
  Array.iter (fun pc -> leader.(pc) <- true) task_pcs;
  fold
    (fun pc () ->
      let op = code.(pc) in
      if is_branch op then begin
        leader.(code.(target_at op pc)) <- true;
        leader.(pc + width op) <- true
      end)
    ();
  (* blocks as [head, stop) ranges, in reverse code order *)
  let blocks = ref [] and head = ref (-1) in
  let close stop =
    if !head >= 0 then blocks := (!head, stop) :: !blocks;
    head := -1
  in
  fold
    (fun pc () ->
      let op = code.(pc) in
      if leader.(pc) then close pc;
      if in_block op || is_branch op then begin
        if !head < 0 then head := pc;
        if is_branch op then close (pc + width op)
      end
      else close pc)
    ();
  close len;
  let kept =
    List.rev !blocks
    |> List.filter_map (fun (h, stop) ->
           let s = sum_ops c accs code h stop in
           if s.(0) >= min_block_charges then Some (h, stop, s) else None)
  in
  (* a BLOCK op (9 words) goes before each kept head, and jumps to the
     head land on it *)
  let sums = Array.make (len + 1) [||] in
  List.iter (fun (h, _, s) -> sums.(h) <- s) kept;
  let is_head pc = Array.length sums.(pc) > 0 in
  let newpc = Array.make (len + 1) 0 in
  let main_len =
    fold
      (fun pc at ->
        let at = if is_head pc then at + 9 else at in
        newpc.(pc) <- at;
        at + width code.(pc))
      0
  in
  newpc.(len) <- main_len;
  let dest pc = if is_head pc then newpc.(pc) - 9 else newpc.(pc) in
  let emit_op buf pc =
    let op = code.(pc) in
    for i = pc to pc + width op - 1 do
      emit buf (if is_branch op && i = target_at op pc then dest code.(i) else code.(i))
    done
  in
  (* the uncharged copies, appended after the per-op code, and each
     block's per-op dispatch counts, as nonzero (op, n) pairs *)
  let copies = buf_create () and backs = buf_create () and hists = buf_create () in
  let copy_at = Array.make (len + 1) 0 and hist_at = Array.make (len + 1) 0 in
  let ops = Array.make n_ops 0 in
  List.iter
    (fun (h, stop, _) ->
      copy_at.(h) <- main_len + copies.len;
      let emit_all = List.iter (emit copies) in
      (* the part of the block not reached when the op at [pc] raises *)
      let back pc =
        Array.iter (emit backs) (sum_ops c accs code pc stop);
        (backs.len / back_width) - 1
      in
      let rec go pc last =
        if pc < stop then begin
          ops.(code.(pc)) <- ops.(code.(pc)) + 1;
          (match code.(pc) with
          | 0 | 1 | 2 -> ()
          | 3 (* PUSH *) -> emit_all [ o_pushraw; code.(pc + 1) ]
          | 5 -> emit_all [ o_uldloc; code.(pc + 1) ]
          | 6 -> emit_all [ o_ustloc; code.(pc + 1) ]
          | 7 -> emit_all [ o_uldg; code.(pc + 1) ]
          | 8 -> emit_all [ o_ustg; code.(pc + 1) ]
          | 11 -> emit_all [ o_ulde; code.(pc + 1); back pc ]
          | 12 -> emit_all [ o_uste; code.(pc + 1); back pc ]
          | 22 -> emit_all [ o_udiv; back pc ]
          | 23 -> emit_all [ o_umod; back pc ]
          | _ -> emit_op copies pc);
          go (pc + width code.(pc)) code.(pc)
        end
        else if last <> o_jmp then
          (* off the end of the copy (no branch, or one not taken):
             continue where the per-op code would *)
          emit_all [ o_jmp; dest stop ]
      in
      go h (-1);
      hist_at.(h) <- hists.len;
      emit hists (Array.fold_left (fun k n -> if n > 0 then k + 1 else k) 0 ops);
      Array.iteri (fun op n -> if n > 0 then List.iter (emit hists) [ op; n ]) ops;
      Array.fill ops 0 n_ops 0)
    kept;
  let out = buf_create () in
  fold
    (fun pc () ->
      if is_head pc then begin
        emit out o_block;
        Array.iter (emit out) sums.(pc);
        emit out copy_at.(pc);
        emit out hist_at.(pc)
      end;
      emit_op out pc)
    ();
  assert (out.len = main_len);
  ( Array.append (Array.sub out.b 0 out.len) (Array.sub copies.b 0 copies.len),
    main_len,
    Array.map dest task_pcs,
    Array.sub backs.b 0 backs.len,
    Array.sub hists.b 0 hists.len )

let compile ?policy ?extra_io ?ablate_regions ?ablate_semantics m prog =
  let linked = Interp.build ?policy ?extra_io ?ablate_regions ?ablate_semantics m prog in
  let exec_prog = Interp.program linked in
  (* lower every task into one shared code buffer *)
  let ctx =
    {
      cb = buf_create ();
      xaccs = tbl_create ();
      acc_ids = Hashtbl.create 32;
      xcalls = tbl_create ();
      xdmas = tbl_create ();
      xstrs = tbl_create ();
      str_ids = Hashtbl.create 16;
      local_ids = Hashtbl.create 16;
      n_locals = 0;
      n_regs = 0;
      linked;
    }
  in
  let task_pcs =
    Array.of_list
      (List.map
         (fun task ->
           let pc = here ctx in
           cstmts ctx task.t_body;
           op2 ctx o_fail
             (str_id ctx
                (Printf.sprintf "task %s fell through without next/stop" task.t_name));
           pc)
         exec_prog.p_tasks)
  in
  (* the engine's task pointer, placed after the linker's layout exactly
     where [Engine.start] places it for a tree-walker run *)
  let cur_slot = Machine.alloc m Memory.Fram ~name:"kernel.cur_task" ~words:1 in
  let calls = tbl_to_array ctx.xcalls in
  let accs = tbl_to_array ctx.xaccs in
  let code, copies, task_pcs, backs, hists =
    blockify (Machine.cost m) accs (Array.sub ctx.cb.b 0 ctx.cb.len) task_pcs
  in
  let t =
    {
      linked;
      m;
      mgr = Interp.manager linked;
      rt = Interp.runtime linked;
      code;
      task_pcs;
      accs;
      calls;
      dmas = tbl_to_array ctx.xdmas;
      strs = tbl_to_array ctx.xstrs;
      backs;
      hists;
      copies;
      app = None;
      cur_slot;
      stack = Array.make (max_stack exec_prog) 0;
      locals = Array.make (max 1 ctx.n_locals) 0;
      regs = Array.make (max 1 ctx.n_regs) 0;
      steps = 0;
      metered = false;
      opcounts = Array.make n_codes 0;
      callcounts = Array.make (max 1 (Array.length calls)) 0;
      sc_src_space = Memory.Fram;
      sc_src_addr = 0;
      sc_src_room = 0;
      sc_dst_space = Memory.Fram;
      sc_dst_addr = 0;
      sc_dst_room = 0;
    }
  in
  let body_of idx _m =
    (* per-attempt prologue, as [Interp.to_app]: fresh locals, fresh step
       budget *)
    Array.fill t.locals 0 (Array.length t.locals) 0;
    t.steps <- 0;
    exec t t.task_pcs.(idx)
  in
  let tasks =
    List.mapi
      (fun idx task -> { Kernel.Task.name = task.t_name; body = body_of idx })
      exec_prog.p_tasks
  in
  t.app <-
    Some (Kernel.Task.make_app ~name:exec_prog.p_name ~entry:exec_prog.p_entry tasks);
  t

let reset ?(seed = 1) ?(failure = Failure.No_failures) t =
  Machine.reset ~seed ~failure t.m;
  Periph.Radio.reset (Interp.radio t.linked);
  Interp.reflash t.linked

(* {1 Session access}

   [run] decomposes into three reusable pieces so session-based
   drivers (prefix-resume campaigns, the explorer) can run the arena
   through the engine stepper instead of [Kernel.Engine.run]: [prepare]
   yields the engine inputs, [begin_metered] latches metering and
   zeroes the dispatch counters, [flush_counts] pushes them to the
   attached sheet at the end. The VM's volatile execution state (stack,
   locals, registers, step budget) is dead at attempt boundaries — the
   per-attempt prologue in [body_of] re-zeroes it — so engine-boundary
   checkpoints only need the metered dispatch counters
   ([save_counts]/[restore_counts]) and the radio, not the arrays. *)

let prepare ?check t =
  let app = Option.get t.app in
  let app =
    match check with
    | None -> app
    | Some f -> { app with Kernel.Task.check = Some (fun _m -> f t.linked) }
  in
  (app, Interp.hooks t.linked, t.cur_slot)

let begin_metered t =
  t.metered <- Machine.metered t.m;
  if t.metered then begin
    Array.fill t.opcounts 0 n_codes 0;
    Array.fill t.callcounts 0 (Array.length t.callcounts) 0
  end

let flush_counts t =
  match Machine.meter t.m with
  | None -> ()
  | Some sheet ->
      (* flush the run's dispatch counts to the campaign sheet; the
         per-callsite intern is a hash lookup once per run, cold *)
      for op = 0 to n_ops - 1 do
        let n = t.opcounts.(op) in
        if n > 0 then Obs.Sheet.add sheet vm_op_ids.(op) n
      done;
      Array.iteri
        (fun i n ->
          if n > 0 then
            Obs.Sheet.add sheet (Obs.Registry.counter ("vm/call/" ^ t.calls.(i).c_name)) n)
        t.callcounts

let save_counts t = (Array.copy t.opcounts, Array.copy t.callcounts)

let restore_counts t (ops, calls) =
  Array.blit ops 0 t.opcounts 0 (Array.length ops);
  Array.blit calls 0 t.callcounts 0 (Array.length calls)

let run ?check t =
  let app, hooks, cur_slot = prepare ?check t in
  begin_metered t;
  let outcome = Kernel.Engine.run ~hooks ~cur_slot t.m app in
  flush_counts t;
  outcome
