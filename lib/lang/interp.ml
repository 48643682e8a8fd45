open Platform
open Ast

type policy = Plain | Alpaca | Ink | Easeio

let policy_name = function
  | Plain -> "Plain"
  | Alpaca -> "Alpaca"
  | Ink -> "InK"
  | Easeio -> "EaseIO"

type io_arg_v = Val of int | Arr of Loc.t * int
type io_impl = Machine.t -> io_arg_v list -> int

(* How a global is stored: managed by the baseline runtime's variable
   manager, or a raw location. *)
type global = Managed of Runtimes.Manager.var * int | Raw of Loc.t * int

type t = {
  m : Machine.t;
  prog : program;
  radio : Periph.Radio.t;
  io : (string, io_impl) Hashtbl.t;
  globals : (string, global) Hashtbl.t;
  mgr : Runtimes.Manager.t option;
  rt : Easeio.Runtime.t option;
  hooks : Kernel.Engine.hooks;
      (** the runtime's hooks plus commit-time clearing of each task's
          transform-inserted lock flags *)
  flash : (Memory.space * int * int) array;
      (** flash-time initialization, word by word (see [reflash]) *)
  locals : (string, int) Hashtbl.t;
  transformed : Transform.result option;
  check : (t -> bool) option;
  mutable steps : int;
}

exception Transition of Kernel.Task.transition

let step_limit = 20_000_000

let machine t = t.m
let radio t = t.radio
let program t = t.prog
let transformed t = t.transformed
let manager t = t.mgr
let runtime t = t.rt
let hooks t = t.hooks
let io t name = Hashtbl.find_opt t.io name
let global t name = Hashtbl.find_opt t.globals name

let reflash t =
  Array.iter (fun (space, addr, v) -> Memory.write (Machine.mem t.m space) addr v) t.flash

(* Work on transform-inserted state counts as runtime overhead. *)
let is_runtime_name name = String.length name >= 2 && name.[0] = '_' && name.[1] = '_'

let ovh_if cond m f = if cond then Machine.with_tag m Machine.Overhead f else f ()

let global_loc t name =
  match global t name with
  | Some (Raw (loc, _)) -> loc
  | Some (Managed (v, _)) -> (
      match t.mgr with
      | Some mgr -> Runtimes.Manager.raw_loc mgr v
      | None -> assert false)
  | None -> raise Not_found

let read_global t name i =
  match global t name with
  | Some (Managed (v, _)) -> Runtimes.Manager.committed (Option.get t.mgr) v i
  | Some (Raw (loc, _)) -> Memory.read (Machine.mem t.m loc.Loc.space) (loc.Loc.addr + i)
  | None -> raise Not_found

(* Result checks compare in place, resolving [name] once: no array is
   built, and every word is read (no early exit), so memory counters
   move as [Array.length expected] calls of [read_global] would move
   them. *)
let global_equals t name expected =
  let ok = ref true in
  (match global t name with
  | Some (Managed (v, _)) ->
      let mgr = Option.get t.mgr in
      Array.iteri (fun i x -> if Runtimes.Manager.committed mgr v i <> x then ok := false) expected
  | Some (Raw (loc, _)) ->
      let mem = Machine.mem t.m loc.Loc.space in
      Array.iteri (fun i x -> if Memory.read mem (loc.Loc.addr + i) <> x then ok := false) expected
  | None -> raise Not_found);
  !ok

(* {1 Charged variable access} *)

let read_scalar t name =
  match global t name with
  | Some (Managed (v, _)) -> Runtimes.Manager.read (Option.get t.mgr) v 0
  | Some (Raw (loc, _)) ->
      ovh_if (is_runtime_name name) t.m (fun () -> Machine.read t.m loc.Loc.space loc.Loc.addr)
  | None ->
      (* volatile task-local; registers are free beyond the op cost *)
      Machine.cpu t.m 1;
      Option.value ~default:0 (Hashtbl.find_opt t.locals name)

let write_scalar t name v =
  match global t name with
  | Some (Managed (var, _)) -> Runtimes.Manager.write (Option.get t.mgr) var 0 v
  | Some (Raw (loc, _)) ->
      ovh_if (is_runtime_name name) t.m (fun () -> Machine.write t.m loc.Loc.space loc.Loc.addr v)
  | None ->
      Machine.cpu t.m 1;
      Hashtbl.replace t.locals name v

let read_elem t name i =
  match global t name with
  | Some (Managed (v, words)) ->
      if i < 0 || i >= words then error "index %d out of bounds for %s[%d]" i name words;
      Runtimes.Manager.read (Option.get t.mgr) v i
  | Some (Raw (loc, words)) ->
      if i < 0 || i >= words then error "index %d out of bounds for %s[%d]" i name words;
      ovh_if (is_runtime_name name) t.m (fun () ->
          Machine.read t.m loc.Loc.space (loc.Loc.addr + i))
  | None -> error "unknown array %s" name

let write_elem t name i v =
  match global t name with
  | Some (Managed (var, words)) ->
      if i < 0 || i >= words then error "index %d out of bounds for %s[%d]" i name words;
      Runtimes.Manager.write (Option.get t.mgr) var i v
  | Some (Raw (loc, words)) ->
      if i < 0 || i >= words then error "index %d out of bounds for %s[%d]" i name words;
      ovh_if (is_runtime_name name) t.m (fun () ->
          Machine.write t.m loc.Loc.space (loc.Loc.addr + i) v)
  | None -> error "unknown array %s" name

(* Raw location for peripherals (DMA, LEA): bypasses any mediation. *)
let loc_words t name =
  match global t name with
  | Some (Raw (loc, words)) -> (loc, words)
  | Some (Managed (v, words)) -> (Runtimes.Manager.raw_loc (Option.get t.mgr) v, words)
  | None -> error "unknown array %s (peripherals need declared globals)" name

(* {1 Expression evaluation} *)

let bool_int b = if b then 1 else 0

let rec eval t e =
  t.steps <- t.steps + 1;
  if t.steps > step_limit then error "step limit exceeded (infinite loop?)";
  match e with
  | Int n -> n
  | Var v -> read_scalar t v
  | Index (a, i) ->
      let i = eval t i in
      read_elem t a i
  | Unop (Neg, e) ->
      Machine.cpu t.m 1;
      -eval t e
  | Unop (Not, e) ->
      Machine.cpu t.m 1;
      bool_int (eval t e = 0)
  | Binop (And, a, b) ->
      Machine.cpu t.m 1;
      if eval t a = 0 then 0 else bool_int (eval t b <> 0)
  | Binop (Or, a, b) ->
      Machine.cpu t.m 1;
      if eval t a <> 0 then 1 else bool_int (eval t b <> 0)
  | Binop (op, a, b) ->
      Machine.cpu t.m 1;
      let x = eval t a and y = eval t b in
      (match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div -> if y = 0 then error "division by zero" else x / y
      | Mod -> if y = 0 then error "modulo by zero" else x mod y
      | Eq -> bool_int (x = y)
      | Ne -> bool_int (x <> y)
      | Lt -> bool_int (x < y)
      | Le -> bool_int (x <= y)
      | Gt -> bool_int (x > y)
      | Ge -> bool_int (x >= y)
      | And | Or -> assert false)
  | Get_time -> Machine.with_tag t.m Machine.Overhead (fun () -> Timekeeper.read t.m)

let mem_loc t { ref_arr; ref_off } =
  let loc, words = loc_words t ref_arr in
  let off = eval t ref_off in
  if off < 0 || off > words then error "offset %d out of bounds for %s[%d]" off ref_arr words;
  (Loc.offset loc off, words - off)

(* {1 Statement execution} *)

let rec exec_stmts t stmts = List.iter (exec_stmt t) stmts

and exec_stmt t stmt =
  t.steps <- t.steps + 1;
  if t.steps > step_limit then error "step limit exceeded (infinite loop?)";
  Machine.cpu t.m 1;
  match stmt.s with
  | Assign (v, e) -> write_scalar t v (eval t e)
  | Store (a, i, e) ->
      let i = eval t i in
      write_elem t a i (eval t e)
  | If (c, a, b) -> if eval t c <> 0 then exec_stmts t a else exec_stmts t b
  | While (c, b) ->
      while eval t c <> 0 do
        exec_stmts t b
      done
  | For (v, lo, hi, b) ->
      let lo = eval t lo and hi = eval t hi in
      write_scalar t v lo;
      let i = ref lo in
      while !i <= hi do
        exec_stmts t b;
        incr i;
        write_scalar t v !i
      done
  | Call_io c -> exec_call t c
  | Io_block { blk_body; _ } ->
      (* only reached under baseline policies (the transform eliminates
         blocks): baselines have no block semantics, the body just runs *)
      exec_stmts t blk_body
  | Dma d -> exec_dma t d
  | Memcpy { cp_dst; cp_src; cp_words } ->
      let words = eval t cp_words in
      let dst, dst_room = mem_loc t cp_dst in
      let src, src_room = mem_loc t cp_src in
      if words < 0 then error "memcpy: negative length %d" words;
      if words > dst_room || words > src_room then error "memcpy out of bounds";
      Machine.with_tag t.m Machine.Overhead (fun () ->
          for i = 0 to words - 1 do
            Machine.write t.m dst.Loc.space (dst.Loc.addr + i)
              (Machine.read t.m src.Loc.space (src.Loc.addr + i))
          done)
  | Seal_dmas -> (
      match t.rt with Some rt -> Easeio.Runtime.seal_dmas rt | None -> ())
  | Next name -> raise (Transition (Kernel.Task.Next name))
  | Stop -> raise (Transition Kernel.Task.Stop)

and exec_call t c =
  let impl =
    match io t c.io with
    | Some impl -> impl
    | None -> error "unknown I/O function %s" c.io
  in
  let args =
    List.map
      (function
        | Aexpr e -> Val (eval t e)
        | Aarr a ->
            let loc, words = loc_words t a in
            Arr (loc, words))
      c.args
  in
  let v = impl t.m args in
  match c.target with Some tgt -> write_scalar t tgt v | None -> ()

and exec_dma t d =
  let words = eval t d.dma_words in
  let src, src_room = mem_loc t d.dma_src in
  let dst, dst_room = mem_loc t d.dma_dst in
  if words < 0 then error "dma_copy: negative length %d" words;
  if words > src_room || words > dst_room then error "dma_copy out of bounds";
  match t.rt with
  | None ->
      (* baselines: raw transfer, re-executed with the task *)
      Periph.Dma.copy t.m ~src ~dst ~words
  | Some rt ->
      let force =
        List.exists (fun dep -> Option.value ~default:0 (Hashtbl.find_opt t.locals dep) <> 0)
          d.dma_deps
      in
      Easeio.Runtime.dma_copy ~exclude:d.exclude ~force rt ~src ~dst ~words

(* {1 Default peripherals} *)

(* The SRAM address of word [off] of an LEA operand array, which must
   hold [words >= 0] words from there. *)
let lea_operand name what arg ~off ~words =
  match arg with
  | Arr ({ Loc.space = Memory.Sram; addr }, size) ->
      if off < 0 || off + words > size then
        error "%s: %s range [%d, %d) outside its %d-word array" name what off (off + words) size;
      addr + off
  | Arr ({ Loc.space = Memory.Fram; _ }, _) ->
      error "%s: LEA operands must live in SRAM (LEA-RAM)" name
  | Val _ -> error "%s: expected an array argument" name

let lea_fir name m ~input ~in_off ~coeffs ~taps ~output ~out_off ~samples =
  if taps < 0 then error "%s: negative taps %d" name taps;
  if samples < 0 then error "%s: negative samples %d" name samples;
  let input = lea_operand name "input" input ~off:in_off ~words:(max 0 (samples + taps - 1)) in
  let coeffs = lea_operand name "coeffs" coeffs ~off:0 ~words:taps in
  let output = lea_operand name "output" output ~off:out_off ~words:samples in
  Periph.Lea.fir m ~input ~coeffs ~taps ~output ~samples

let default_io radio : (string * io_impl) list =
  [
    ("Temp", fun m _ -> Periph.Sensors.temperature_dc m);
    ("Humd", fun m _ -> Periph.Sensors.humidity_pct m);
    ("Pres", fun m _ -> Periph.Sensors.pressure_pa10 m);
    ("Light", fun m _ -> Periph.Sensors.light_lux m);
    ( "Send",
      fun _ args ->
        let payload =
          List.map (function Val v -> v | Arr _ -> error "Send takes scalar values") args
        in
        Periph.Radio.send radio (Array.of_list payload);
        0 );
    ( "Capture",
      fun m args ->
        match args with
        | [ Arr (dst, words); Val pixels ] ->
            if pixels > words then error "Capture: frame larger than buffer";
            Periph.Camera.capture m ~dst ~pixels;
            0
        | _ -> error "Capture(buffer, pixels)" );
    ( "Delay",
      fun m args ->
        match args with
        | [ Val us ] ->
            Machine.idle m us;
            0
        | _ -> error "Delay(us)" );
    ( "Lea_mac",
      fun m args ->
        match args with
        | [ a; b; Val len ] ->
            if len < 0 then error "Lea_mac: negative length %d" len;
            let a = lea_operand "Lea_mac" "a" a ~off:0 ~words:len in
            let b = lea_operand "Lea_mac" "b" b ~off:0 ~words:len in
            Periph.Lea.vector_mac m ~a ~b ~len
        | _ -> error "Lea_mac(a, b, len)" );
    ( "Lea_fir",
      fun m args ->
        match args with
        | [ input; coeffs; Val taps; output; Val samples ] ->
            lea_fir "Lea_fir" m ~input ~in_off:0 ~coeffs ~taps ~output ~out_off:0 ~samples;
            0
        | _ -> error "Lea_fir(input, coeffs, taps, output, samples)" );
  ]

(* {1 Linking} *)

(* Place each global: a manager variable under Alpaca/InK (declared WAR
   when any task reads it before writing it), a raw FRAM/SRAM location
   otherwise. Initializers are written at flash time (uncharged), and
   recorded word by word for [reflash]. *)
let link_globals m mgr prog =
  let globals = Hashtbl.create 32 and flash = ref [] in
  List.iter
    (fun d ->
      let g =
        match (mgr, d.v_space) with
        | Some mgr, Nv ->
            let war =
              List.exists (fun task -> List.mem d.v_name (Analysis.war_vars prog task))
                prog.p_tasks
            in
            Managed (Runtimes.Manager.declare ~war mgr ~name:d.v_name ~words:d.v_words, d.v_words)
        | _ ->
            let space = match d.v_space with Nv -> Memory.Fram | Vol -> Memory.Sram in
            let addr = Machine.alloc m space ~name:d.v_name ~words:d.v_words in
            Raw ({ Loc.space; addr }, d.v_words)
      in
      Hashtbl.replace globals d.v_name g;
      Option.iter
        (fun init ->
          let loc =
            match g with
            | Raw (loc, _) -> loc
            | Managed (v, _) -> Runtimes.Manager.flash_loc (Option.get mgr) v
          in
          Array.iteri
            (fun i v ->
              if i < d.v_words then begin
                Memory.write (Machine.mem m loc.Loc.space) (loc.Loc.addr + i) v;
                flash := (loc.Loc.space, loc.Loc.addr + i, v) :: !flash
              end)
            init)
        d.v_init)
    prog.p_globals;
  (globals, Array.of_list (List.rev !flash))

(* The runtime's hooks, composed with clearing each task's commit-
   cleared lock flags (loop-indexed sites clear whole flag arrays). The
   flags exist only under EaseIO, which has no manager, so each is a raw
   FRAM global. *)
let link_hooks globals mgr rt transformed =
  let base =
    match (mgr, rt) with
    | Some mgr, _ -> Runtimes.Manager.hooks mgr
    | _, Some rt -> Easeio.Runtime.hooks rt
    | None, None -> Kernel.Engine.no_hooks
  in
  let clear = Hashtbl.create 8 in
  Option.iter
    (fun { Transform.clear_flags; _ } ->
      List.iter
        (fun (task, flags) ->
          Hashtbl.replace clear task
            (List.map
               (fun f ->
                 match Hashtbl.find globals f with
                 | Raw (loc, words) -> (loc.Loc.addr, words)
                 | Managed _ -> assert false)
               flags))
        clear_flags)
    transformed;
  let clear_hook =
    {
      Kernel.Engine.on_task_start = (fun _ _ -> ());
      on_commit =
        (fun m task ->
          match Hashtbl.find_opt clear task with
          | None -> ()
          | Some ranges ->
              List.iter
                (fun (addr, words) ->
                  for i = 0 to words - 1 do
                    Machine.write m Memory.Fram (addr + i) 0
                  done)
                ranges);
      on_reboot = (fun _ -> ());
    }
  in
  Kernel.Engine.compose_hooks base clear_hook

let build ?(policy = Easeio) ?(extra_io = []) ?check ?ablate_regions ?ablate_semantics m prog =
  validate prog;
  let transformed =
    match policy with
    | Easeio ->
        Some (Transform.apply ?ablate_regions ?ablate_semantics ~priv_buffer_words:max_int prog)
    | Plain | Alpaca | Ink -> None
  in
  let prog = match transformed with Some r -> r.Transform.prog | None -> prog in
  let mgr =
    match policy with
    | Alpaca -> Some (Runtimes.Manager.create m Runtimes.Manager.Alpaca)
    | Ink -> Some (Runtimes.Manager.create m Runtimes.Manager.Ink)
    | Plain | Easeio -> None
  in
  (* the buffer is fitted to the statically computed demand (zero for
     DMA-free applications — the paper's 6-byte-overhead case) *)
  let rt =
    Option.map
      (fun r -> Easeio.Runtime.create ~priv_buffer_words:r.Transform.priv_demand_words m)
      transformed
  in
  let radio = Periph.Radio.create m in
  let io = Hashtbl.create 16 in
  List.iter (fun (name, impl) -> Hashtbl.replace io name impl) (default_io radio @ extra_io);
  let globals, flash = link_globals m mgr prog in
  {
    m;
    prog;
    radio;
    io;
    globals;
    mgr;
    rt;
    hooks = link_hooks globals mgr rt transformed;
    flash;
    locals = Hashtbl.create 16;
    transformed;
    check;
    steps = 0;
  }

let to_app t =
  let body_of task m =
    ignore m;
    Hashtbl.reset t.locals;
    t.steps <- 0;
    match exec_stmts t task.t_body with
    | () -> error "task %s fell through without next/stop" task.t_name
    | exception Transition tr -> tr
  in
  let check = Option.map (fun f _m -> f t) t.check in
  Kernel.Task.make_app ?check ~name:t.prog.p_name ~entry:t.prog.p_entry
    (List.map (fun task -> { Kernel.Task.name = task.t_name; body = body_of task }) t.prog.p_tasks)

let run t = Kernel.Engine.run ~hooks:t.hooks t.m (to_app t)
