module Rng = Platform.Rng
module Json = Trace.Json

type options = {
  count : int;
  seed : int;
  jobs : int;
  budget : int;
  max_shrink : int;
  ablate_regions : bool;
  ablate_semantics : bool;
  check_vm : bool;
}

let default_options =
  {
    count = 100;
    seed = 1;
    jobs = 1;
    budget = 24;
    max_shrink = 300;
    ablate_regions = false;
    ablate_semantics = false;
    check_vm = true;
  }

type counterexample = {
  case_index : int;
  gen_seed : int;
  violations : Judge.violation list;
  original_stmts : int;
  shrunk_stmts : int;
  shrink_accepted : int;
  shrink_checks : int;
  shrunk : Lang.Ast.program;
}

type report = {
  options : options;
  cases : int;
  clean : int;
  expected_diag : int;
  violating : int;
  total_runs : int;
  boundaries_total : int;
  boundaries_run : int;
  strided : bool;
  unsafe_baseline : (string * int) list;
  violation_kinds : (string * int) list;
  counterexamples : counterexample list;
  snap : Obs.Snapshot.t;
}

let salt = 0x6a77

let config_of (o : options) =
  {
    Judge.default_config with
    Judge.budget = o.budget;
    ablate_regions = o.ablate_regions;
    ablate_semantics = o.ablate_semantics;
    check_vm = o.check_vm;
  }

(* One case, pure in (options, index): generate, judge, and — when a
   clean-intent case is violated — shrink while preserving one of the
   original violation keys. *)
let one_case (o : options) i =
  let cfg = config_of o in
  let gen_seed = Rng.hash2 (Rng.hash2 o.seed salt) i in
  let case = Gen.generate ~seed:gen_seed in
  let out = Judge.judge ~config:cfg case in
  let extra_runs = ref 0 in
  let cex =
    if out.Judge.violations = [] || case.Gen.intent <> Gen.Clean then None
    else begin
      let keys = List.sort_uniq compare (List.map Judge.key out.Judge.violations) in
      let fails p =
        let out' =
          Judge.judge ~stop_early:true ~config:cfg { case with Gen.prog = p; intent = Gen.Clean }
        in
        extra_runs := !extra_runs + out'.Judge.runs;
        List.exists (fun v -> List.mem (Judge.key v) keys) out'.Judge.violations
      in
      let shrunk, accepted, checks =
        Shrink.minimize ~max_checks:o.max_shrink ~valid:Gen.valid ~fails case.Gen.prog
      in
      Some
        {
          case_index = i;
          gen_seed;
          violations = out.Judge.violations;
          original_stmts = Gen.stmt_count case.Gen.prog;
          shrunk_stmts = Gen.stmt_count shrunk;
          shrink_accepted = accepted;
          shrink_checks = checks;
          shrunk;
        }
    end
  in
  (case, out, cex, out.Judge.runs + !extra_runs)

(* Campaign metrics live on one sheet filled by the sequential fold
   below — never inside the per-case workers — so the snapshot is a
   pure function of (options) and byte-identical for any [jobs]. *)
let m_cases = Obs.Registry.counter "fuzz/cases"
let m_clean = Obs.Registry.counter "fuzz/clean"
let m_expected = Obs.Registry.counter "fuzz/expected_diag"
let m_violating = Obs.Registry.counter "fuzz/violating"
let m_runs = Obs.Registry.counter "fuzz/total_runs"
let m_boundaries_total = Obs.Registry.counter "fuzz/boundaries_total"
let m_boundaries_run = Obs.Registry.counter "fuzz/boundaries_run"
let m_shrink_checks = Obs.Registry.counter "fuzz/shrink_checks"
let m_shrink_accepted = Obs.Registry.counter "fuzz/shrink_accepted"
let m_case_runs = Obs.Registry.hist "fuzz/case_runs"

let run ?progress (o : options) =
  Option.iter (fun p -> Obs.Progress.add_total p o.count) progress;
  let tick = Option.map (fun p () -> Obs.Progress.tick p) progress in
  let results = Expkit.Pool.map ~jobs:(max 1 o.jobs) ?tick o.count (one_case o) in
  let sheet = Obs.Sheet.create () in
  let clean = ref 0
  and expected = ref 0
  and violating = ref 0
  and runs = ref 0
  and b_total = ref 0
  and b_run = ref 0
  and strided = ref false
  and unsafe = Hashtbl.create 4
  and kinds = Hashtbl.create 8
  and cexs = ref [] in
  Array.iter
    (fun (case, (out : Judge.outcome), cex, case_runs) ->
      runs := !runs + case_runs;
      b_total := !b_total + out.Judge.boundaries_total;
      b_run := !b_run + out.Judge.boundaries_run;
      if out.Judge.strided then strided := true;
      Obs.Sheet.bump sheet m_cases;
      Obs.Sheet.add sheet m_runs case_runs;
      Obs.Sheet.add sheet m_boundaries_total out.Judge.boundaries_total;
      Obs.Sheet.add sheet m_boundaries_run out.Judge.boundaries_run;
      Obs.Sheet.observe sheet m_case_runs case_runs;
      (match cex with
      | Some c ->
          Obs.Sheet.add sheet m_shrink_checks c.shrink_checks;
          Obs.Sheet.add sheet m_shrink_accepted c.shrink_accepted
      | None -> ());
      if out.Judge.violations = [] then begin
        match case.Gen.intent with
        | Gen.Clean ->
            incr clean;
            Obs.Sheet.bump sheet m_clean
        | Gen.Expect _ ->
            incr expected;
            Obs.Sheet.bump sheet m_expected
      end
      else begin
        incr violating;
        Obs.Sheet.bump sheet m_violating;
        List.iter
          (fun v ->
            let k = Judge.key v in
            Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
          out.Judge.violations
      end;
      List.iter
        (fun (v, n) ->
          Hashtbl.replace unsafe v (n + Option.value ~default:0 (Hashtbl.find_opt unsafe v)))
        out.Judge.unsafe_baseline;
      match cex with Some c -> cexs := c :: !cexs | None -> ())
    results;
  {
    options = o;
    cases = o.count;
    clean = !clean;
    expected_diag = !expected;
    violating = !violating;
    total_runs = !runs;
    boundaries_total = !b_total;
    boundaries_run = !b_run;
    strided = !strided;
    unsafe_baseline =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) unsafe []);
    violation_kinds = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []);
    counterexamples = List.rev !cexs;
    snap = Obs.Snapshot.of_sheet sheet;
  }

let passed r = r.violating = 0

let max_cex_in_json = 20

let to_json (r : report) =
  let o = r.options in
  Json.Obj
    [
      ( "options",
        Json.Obj
          [
            ("count", Json.Int o.count);
            ("seed", Json.Int o.seed);
            ("budget", Json.Int o.budget);
            ("max_shrink", Json.Int o.max_shrink);
            ("ablate_regions", Json.Bool o.ablate_regions);
            ("ablate_semantics", Json.Bool o.ablate_semantics);
          ] );
      ("cases", Json.Int r.cases);
      ("clean", Json.Int r.clean);
      ("expected_diag", Json.Int r.expected_diag);
      ("violating", Json.Int r.violating);
      ("total_runs", Json.Int r.total_runs);
      ("boundaries_total", Json.Int r.boundaries_total);
      ("boundaries_run", Json.Int r.boundaries_run);
      ("strided", Json.Bool r.strided);
      ( "unsafe_baseline",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.unsafe_baseline) );
      ( "violation_kinds",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.violation_kinds) );
      ("metrics", Obs.Snapshot.to_json r.snap);
      ( "counterexamples",
        Json.List
          (List.filteri
             (fun i _ -> i < max_cex_in_json)
             r.counterexamples
          |> List.map (fun c ->
                 Json.Obj
                   [
                     ("case_index", Json.Int c.case_index);
                     ("gen_seed", Json.Int c.gen_seed);
                     ("original_stmts", Json.Int c.original_stmts);
                     ("shrunk_stmts", Json.Int c.shrunk_stmts);
                     ("shrink_accepted", Json.Int c.shrink_accepted);
                     ("shrink_checks", Json.Int c.shrink_checks);
                     ("violations", Json.List (List.map Judge.violation_to_json c.violations));
                     ("shrunk", Json.String (Lang.Pretty.program_to_string c.shrunk));
                   ])) );
    ]

let reproducer (o : options) (c : counterexample) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "// easeio fuzz counterexample: campaign seed %d, case %d, generator seed %d\n"
       o.seed c.case_index c.gen_seed);
  List.iter
    (fun v -> Buffer.add_string b (Printf.sprintf "// violation: %s\n" (Judge.describe v)))
    c.violations;
  let flags =
    (if o.ablate_regions then " --ablate-regions" else "")
    ^ if o.ablate_semantics then " --ablate-semantics" else ""
  in
  Buffer.add_string b
    (Printf.sprintf "// replay: easeio fuzz --replay fuzz_%d.eio --budget %d%s\n\n" c.gen_seed
       o.budget flags);
  Buffer.add_string b (Lang.Pretty.program_to_string c.shrunk);
  Buffer.add_char b '\n';
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_atomic path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match output_string oc s with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

let save_reproducers ~dir (o : options) (r : report) =
  mkdir_p dir;
  List.map
    (fun c ->
      let path = Filename.concat dir (Printf.sprintf "fuzz_%d.eio" c.gen_seed) in
      write_atomic path (reproducer o c);
      path)
    r.counterexamples
