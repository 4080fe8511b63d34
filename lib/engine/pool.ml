module Table = Trips_util.Table

type origin = Computed | Cache_hit | Coalesced

let origin_name = function
  | Computed -> "computed"
  | Cache_hit -> "cache"
  | Coalesced -> "coalesced"

type outcome = Done of Table.t * origin | Error of string

type entry = {
  e_id : string;
  e_key : string option;
  e_run : unit -> Table.t;
  mutable e_waiters : int; (* attached tickets; 0 = every requester cancelled *)
  mutable e_state : state;
}

and state = Queued | Running | Settled of (Table.t, string) result

type t = {
  lock : Mutex.t;
  settled : Condition.t; (* broadcast whenever any entry settles *)
  q : entry Workq.t;
  inflight : (string, entry) Hashtbl.t;
  cache : Result_cache.t option;
  mutable domains : unit Domain.t array;
  mutable closed : bool;
  (* counters; all under [lock] *)
  mutable submitted : int;
  mutable executed : int;
  mutable failed : int;
  mutable shed : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable cancelled : int;
  mutable dropped : int;
  mutable running : int;
  busy : float array; (* per worker *)
}

type ticket = {
  t_pool : t;
  t_entry : entry;
  t_origin : origin;
  mutable t_active : bool;
}

type admission = Admitted of ticket | Shed | Closed

type stats = {
  workers : int;
  queued : int;
  running : int;
  submitted : int;
  executed : int;
  failed : int;
  shed : int;
  cache_hits : int;
  coalesced : int;
  cancelled : int;
  dropped : int;
  busy_s : float;
  worker_busy_s : float array;
}

let now = Unix.gettimeofday

let describe_exn = function
  | Failure m -> m
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | e -> Printexc.to_string e

(* Remove [e]'s in-flight binding, but only if it still owns it: a
   cancelled entry's key may have been re-bound to a fresh entry by a
   later submit. *)
let unbind t e =
  match e.e_key with
  | None -> ()
  | Some k -> (
    match Hashtbl.find_opt t.inflight k with
    | Some cur when cur == e -> Hashtbl.remove t.inflight k
    | _ -> ())

let worker (t : t) wix () =
  let rec loop () =
    match Workq.pop t.q with
    | None -> ()
    | Some e ->
      Mutex.lock t.lock;
      if e.e_waiters <= 0 then begin
        (* every requester cancelled while the job sat in the queue *)
        e.e_state <- Settled (Error "dropped: all requesters cancelled");
        unbind t e;
        t.dropped <- t.dropped + 1;
        Mutex.unlock t.lock
      end
      else begin
        e.e_state <- Running;
        t.running <- t.running + 1;
        Mutex.unlock t.lock;
        let t0 = now () in
        let res =
          match e.e_run () with
          | table -> Ok table
          | exception ex -> Error (describe_exn ex)
        in
        let dt = now () -. t0 in
        (* publish to the disk cache before settling: a submitter that
           misses the in-flight table after this point finds the entry on
           disk instead of recomputing *)
        (match (res, t.cache, e.e_key) with
        | Ok table, Some c, Some key -> Result_cache.store c ~key table
        | _ -> ());
        Mutex.lock t.lock;
        t.running <- t.running - 1;
        t.busy.(wix) <- t.busy.(wix) +. dt;
        (match res with
        | Ok _ -> t.executed <- t.executed + 1
        | Error _ -> t.failed <- t.failed + 1);
        e.e_state <- Settled res;
        unbind t e;
        Condition.broadcast t.settled;
        Mutex.unlock t.lock
      end;
      loop ()
  in
  loop ()

let create ?(workers = 4) ?(queue_capacity = 64) ?cache () =
  let workers = max 1 workers in
  let t =
    {
      lock = Mutex.create ();
      settled = Condition.create ();
      q = Workq.create ~capacity:queue_capacity;
      inflight = Hashtbl.create 64;
      cache;
      domains = [||];
      closed = false;
      submitted = 0;
      executed = 0;
      failed = 0;
      shed = 0;
      cache_hits = 0;
      coalesced = 0;
      cancelled = 0;
      dropped = 0;
      running = 0;
      busy = Array.make workers 0.;
    }
  in
  t.domains <- Array.init workers (fun wix -> Domain.spawn (worker t wix));
  t

let ticket_of t e origin =
  { t_pool = t; t_entry = e; t_origin = origin; t_active = true }

let submit t ?cache_key ~id run =
  Mutex.lock t.lock;
  let admission =
    if t.closed then Closed
    else begin
      let coalesce_target =
        Option.bind cache_key (Hashtbl.find_opt t.inflight)
      in
      match coalesce_target with
      | Some e ->
        e.e_waiters <- e.e_waiters + 1;
        t.submitted <- t.submitted + 1;
        t.coalesced <- t.coalesced + 1;
        Admitted (ticket_of t e Coalesced)
      | None -> (
        let hit =
          match (t.cache, cache_key) with
          | Some c, Some key -> Result_cache.find c ~key
          | _ -> None
        in
        match hit with
        | Some table ->
          t.submitted <- t.submitted + 1;
          t.cache_hits <- t.cache_hits + 1;
          let e =
            {
              e_id = id;
              e_key = cache_key;
              e_run = run;
              e_waiters = 1;
              e_state = Settled (Ok table);
            }
          in
          Admitted (ticket_of t e Cache_hit)
        | None ->
          let e =
            {
              e_id = id;
              e_key = cache_key;
              e_run = run;
              e_waiters = 1;
              e_state = Queued;
            }
          in
          (* [t.closed] is only ever set under [t.lock] before the queue
             closes, so this push cannot raise [Workq.Closed] *)
          if Workq.try_push t.q e then begin
            (match cache_key with
            | Some k -> Hashtbl.replace t.inflight k e
            | None -> ());
            t.submitted <- t.submitted + 1;
            Admitted (ticket_of t e Computed)
          end
          else begin
            t.shed <- t.shed + 1;
            Shed
          end)
    end
  in
  Mutex.unlock t.lock;
  admission

let await ticket =
  let t = ticket.t_pool in
  Mutex.lock t.lock;
  let rec wait () =
    match ticket.t_entry.e_state with
    | Settled r -> r
    | Queued | Running ->
      Condition.wait t.settled t.lock;
      wait ()
  in
  let r = wait () in
  Mutex.unlock t.lock;
  match r with
  | Ok table -> Done (table, ticket.t_origin)
  | Error msg -> Error msg

let cancel ticket =
  let t = ticket.t_pool in
  Mutex.lock t.lock;
  let detached =
    if not ticket.t_active then false
    else
      match ticket.t_entry.e_state with
      | Settled _ -> false
      | Queued | Running ->
        ticket.t_active <- false;
        ticket.t_entry.e_waiters <- ticket.t_entry.e_waiters - 1;
        t.cancelled <- t.cancelled + 1;
        (* if this was the last waiter on a still-queued job, unbind the
           key now so an identical future request starts fresh instead of
           latching onto a job the worker will drop *)
        (match (ticket.t_entry.e_waiters <= 0, ticket.t_entry.e_state) with
        | true, Queued -> unbind t ticket.t_entry
        | _ -> ());
        true
  in
  Mutex.unlock t.lock;
  detached

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      workers = Array.length t.domains;
      queued = Workq.length t.q;
      running = t.running;
      submitted = t.submitted;
      executed = t.executed;
      failed = t.failed;
      shed = t.shed;
      cache_hits = t.cache_hits;
      coalesced = t.coalesced;
      cancelled = t.cancelled;
      dropped = t.dropped;
      busy_s = Array.fold_left ( +. ) 0. t.busy;
      worker_busy_s = Array.copy t.busy;
    }
  in
  Mutex.unlock t.lock;
  s

let shutdown t =
  Mutex.lock t.lock;
  let first = not t.closed in
  t.closed <- true;
  Mutex.unlock t.lock;
  if first then begin
    Workq.close t.q;
    Array.iter Domain.join t.domains
  end
