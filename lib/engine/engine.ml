module Table = Trips_util.Table

type job = {
  id : string;
  cache_key : string option;
  warm : (unit -> unit) list;
  run : unit -> Table.t;
  timeout_s : float;
  retries : int;
}

let job ?cache_key ?(warm = []) ?(timeout_s = 900.) ?(retries = 1) ~id run =
  { id; cache_key; warm; run; timeout_s; retries }

type outcome =
  | Finished of Table.t
  | Failed of { attempts : int; error : string }

type job_report = {
  job_id : string;
  outcome : outcome;
  work_s : float;
  cache_hit : bool;
  attempts : int;
}

type report = {
  workers : int;
  wall_s : float;
  cache_hits : int;
  cache_misses : int;
  busy_s : float array;
  job_reports : job_report list;
}

let utilization r =
  if r.wall_s <= 0. then 0.
  else
    Array.fold_left ( +. ) 0. r.busy_s
    /. (r.wall_s *. float_of_int (Array.length r.busy_s))

let now = Unix.gettimeofday

(* A job's [run] under its attempt policy.  Exceptions retry up to
   [retries]; a blown soft deadline fails without retry (domains cannot be
   preempted, and a deterministic job that ran long once will run long
   again).  The last failure is re-raised, so the pool neither caches nor
   returns a table and its exception text becomes the failure record;
   [record] keeps the attempt count. *)
let attempt_run (j : job) record () =
  let rec go attempts =
    record attempts;
    let t0 = now () in
    match j.run () with
    | table ->
      let dt = now () -. t0 in
      if dt > j.timeout_s then
        failwith
          (Printf.sprintf "timeout: attempt took %.1fs (budget %.1fs)" dt
             j.timeout_s);
      table
    | exception e -> if attempts <= j.retries then go (attempts + 1) else raise e
  in
  go 1

let count p = Array.fold_left (fun n x -> if p x then n + 1 else n) 0

let run ?(workers = 4) ?cache jobs =
  let t_start = now () in
  let jobs = Array.of_list jobs in
  (* one lookup per keyed job before anything runs: a hit runs no warm *)
  let hits =
    Array.map
      (fun (j : job) ->
        match (cache, j.cache_key) with
        | Some c, Some key -> Result_cache.find c ~key
        | _ -> None)
      jobs
  in
  let cache_hits = count Option.is_some hits in
  let keyed =
    if cache = None then 0 else count (fun (j : job) -> j.cache_key <> None) jobs
  in
  (* a queue that holds the whole batch never sheds a submit *)
  let tasks =
    Array.fold_left (fun n (j : job) -> n + 1 + List.length j.warm) 0 jobs
  in
  let pool = Pool.create ~workers ~queue_capacity:(max 1 tasks) () in
  let attempts = Array.make (Array.length jobs) 0 in
  let job_reports =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    (* each task times itself into its own cell; [Pool.await]'s lock
       orders that write before the read below *)
    let submit ?cache_key ~id f =
      let dt = ref 0. in
      let timed () =
        let t0 = now () in
        Fun.protect ~finally:(fun () -> dt := now () -. t0) f
      in
      match Pool.submit pool ?cache_key ~id timed with
      | Pool.Admitted ticket -> (ticket, dt)
      | Pool.Shed | Pool.Closed -> assert false (* see [tasks] *)
    in
    let warms =
      Array.mapi
        (fun jix (j : job) ->
          if Option.is_some hits.(jix) then []
          else
            List.map
              (fun f ->
                (* a warm failure is not fatal here: [run] recomputes the
                   same thing and surfaces the error as the job's failure *)
                submit ~id:j.id (fun () ->
                    (try f () with _ -> ());
                    Table.create []))
              j.warm)
        jobs
    in
    (* Awaits happen on this thread, never inside a pool job: with one
       worker, a run blocked on its warms would hold the only domain
       they could run on. *)
    let runs =
      Array.mapi
        (fun jix (j : job) ->
          if Option.is_some hits.(jix) then None
          else begin
            List.iter (fun (t, _) -> ignore (Pool.await t)) warms.(jix);
            (* the pool has no cache: each key was looked up once
               above, and the run stores its own table *)
            let store =
              match (cache, j.cache_key) with
              | Some c, Some key -> Result_cache.store c ~key
              | _ -> ignore
            in
            Some
              (submit ?cache_key:j.cache_key ~id:j.id (fun () ->
                   let table = attempt_run j (fun n -> attempts.(jix) <- n) () in
                   store table;
                   table))
          end)
        jobs
    in
    List.init (Array.length jobs) (fun jix ->
        let job_id = jobs.(jix).id in
        match runs.(jix) with
        | None ->
          {
            job_id;
            outcome = Finished (Option.get hits.(jix));
            work_s = 0.;
            cache_hit = true;
            attempts = 0;
          }
        | Some (ticket, dt) ->
          let outcome =
            match Pool.await ticket with
            | Pool.Done (table, _) -> Finished table
            | Pool.Error error -> Failed { attempts = attempts.(jix); error }
          in
          {
            job_id;
            outcome;
            work_s = List.fold_left (fun s (_, d) -> s +. !d) !dt warms.(jix);
            cache_hit = false;
            attempts = attempts.(jix);
          })
  in
  let stats = Pool.stats pool in
  {
    workers = stats.Pool.workers;
    wall_s = now () -. t_start;
    cache_hits;
    cache_misses = keyed - cache_hits;
    busy_s = stats.Pool.worker_busy_s;
    job_reports;
  }
