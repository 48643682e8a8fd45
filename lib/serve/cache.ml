(* Bounded LRU result cache with single-flight admission.

   One entry per key. A key is either [Done] (a cached value, subject
   to LRU eviction) or in flight. In-flight entries carry a claimant
   count (how many requests currently want the value) and a token that
   uniquely names this admission: queued jobs carry the token, and a
   job whose token no longer matches the table is a no-op. That is the
   whole exactly-once story —

   - the first claimant of an absent key gets [Compute] and enqueues
     one job; every later claimant gets [Wait];
   - cancelling claimants decrement the count; when it reaches zero
     before a worker has called {!start}, the entry is removed, so the
     orphaned queue job is skipped on pop (token mismatch);
   - once {!start} succeeds the job runs to completion and fills the
     cache even if every claimant has since cancelled — aborting a
     running simulation buys nothing and would forfeit the result.

   So for any key, the number of computations actually started is at
   most (abandoned admissions + 1), never two concurrently. Eviction
   only considers [Done] entries; an evicted-then-rewanted key is a
   fresh admission. All state is under one mutex with one condition
   variable broadcast on every transition; waiters re-check their key
   (and their caller's cancellation flag) on each wakeup. *)

type 'v state = Done of 'v | Running | Failed of string

type 'v entry = {
  token : int;
  mutable state : 'v state;
  mutable claimants : int;
  mutable started : bool;
  mutable tick : int;  (* LRU clock; refreshed on every hit *)
}

type stats = {
  hits : int;
  misses : int;
  computes : int;  (** jobs that ran to completion and filled an entry *)
  failures : int;  (** jobs that raised *)
  abandoned : int;  (** admissions cancelled before a worker started *)
  evictions : int;
  entries : int;  (** live [Done] entries *)
}

type 'v t = {
  cap : int;
  m : Mutex.t;
  changed : Condition.t;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable clock : int;
  mutable next_token : int;
  mutable hits : int;
  mutable misses : int;
  mutable computes : int;
  mutable failures : int;
  mutable abandoned : int;
  mutable evictions : int;
}

let create ~cap =
  if cap < 1 then invalid_arg "Cache.create: cap must be >= 1";
  {
    cap;
    m = Mutex.create ();
    changed = Condition.create ();
    tbl = Hashtbl.create 64;
    clock = 0;
    next_token = 0;
    hits = 0;
    misses = 0;
    computes = 0;
    failures = 0;
    abandoned = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Wake every waiter in the process; also poked periodically by the
   server's ticker so waiters re-check cancellation flags. *)
let broadcast t = locked t (fun () -> Condition.broadcast t.changed)

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let done_count t =
  Hashtbl.fold (fun _ e n -> match e.state with Done _ -> n + 1 | _ -> n) t.tbl 0

let evict_excess t =
  while done_count t > t.cap do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match (e.state, acc) with
          | Done _, None -> Some (k, e.tick)
          | Done _, Some (_, best) when e.tick < best -> Some (k, e.tick)
          | _ -> acc)
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.evictions <- t.evictions + 1
    | None -> ()
  done

(* Read-only: whether [key] has an entry in any state. Touches neither
   the LRU clock nor the counters. *)
let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)

type 'v claim =
  | Hit of 'v
  | Compute of int  (** this caller must enqueue one job carrying the token *)
  | Wait

let acquire t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some ({ state = Done v; _ } as e) ->
          touch t e;
          t.hits <- t.hits + 1;
          Hit v
      | Some e ->
          (* Running or Failed(draining): join the flight *)
          e.claimants <- e.claimants + 1;
          Wait
      | None ->
          t.next_token <- t.next_token + 1;
          let token = t.next_token in
          t.clock <- t.clock + 1;
          Hashtbl.replace t.tbl key
            { token; state = Running; claimants = 1; started = false; tick = t.clock };
          t.misses <- t.misses + 1;
          Compute token)

(* Worker side: claim the right to run the job named [token]. False
   means the admission was abandoned or superseded — skip the job. *)
let start t key token =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e when e.token = token && e.state = Running && not e.started ->
          e.started <- true;
          true
      | _ -> false)

let fill t key token v =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some e when e.token = token ->
          e.state <- Done v;
          touch t e;
          t.computes <- t.computes + 1;
          evict_excess t
      | _ -> ());
      Condition.broadcast t.changed)

let poison t key token msg =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some e when e.token = token ->
          t.failures <- t.failures + 1;
          (* transient: current waiters observe the failure, then the
             entry drains away so a later request retries *)
          if e.claimants <= 0 then Hashtbl.remove t.tbl key else e.state <- Failed msg
      | _ -> ());
      Condition.broadcast t.changed)

(* Drop one claim without waiting (cleanup paths). *)
let release t key =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some ({ state = Running; _ } as e) ->
          e.claimants <- e.claimants - 1;
          if e.claimants <= 0 && not e.started then begin
            Hashtbl.remove t.tbl key;
            t.abandoned <- t.abandoned + 1
          end
      | Some ({ state = Failed _; _ } as e) ->
          e.claimants <- e.claimants - 1;
          if e.claimants <= 0 then Hashtbl.remove t.tbl key
      | _ -> ());
      Condition.broadcast t.changed)

type 'v outcome =
  | Value of 'v
  | Failed_with of string
  | Cancelled
  | Resubmit of int  (** entry vanished (eviction race): caller holds a fresh admission *)

(* Block until the key resolves. [cancelled] is polled on every wakeup;
   the server's ticker broadcasts periodically so a cancel or shutdown
   is observed within a tick even if no cache transition happens. *)
let wait t key ~cancelled =
  locked t (fun () ->
      let rec loop () =
        match Hashtbl.find_opt t.tbl key with
        | Some ({ state = Done v; _ } as e) ->
            touch t e;
            Value v
        | Some ({ state = Failed msg; _ } as e) ->
            e.claimants <- e.claimants - 1;
            if e.claimants <= 0 then Hashtbl.remove t.tbl key;
            Condition.broadcast t.changed;
            Failed_with msg
        | Some ({ state = Running; _ } as e) ->
            if cancelled () then begin
              e.claimants <- e.claimants - 1;
              if e.claimants <= 0 && not e.started then begin
                Hashtbl.remove t.tbl key;
                t.abandoned <- t.abandoned + 1
              end;
              Condition.broadcast t.changed;
              Cancelled
            end
            else begin
              Condition.wait t.changed t.m;
              loop ()
            end
        | None ->
            (* our Done entry was evicted between fill and wakeup: the
               caller must re-enqueue under this fresh admission *)
            t.next_token <- t.next_token + 1;
            let token = t.next_token in
            t.clock <- t.clock + 1;
            Hashtbl.replace t.tbl key
              { token; state = Running; claimants = 1; started = false; tick = t.clock };
            t.misses <- t.misses + 1;
            Resubmit token
      in
      loop ())

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        computes = t.computes;
        failures = t.failures;
        abandoned = t.abandoned;
        evictions = t.evictions;
        entries = done_count t;
      })
