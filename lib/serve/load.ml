module Histogram = Trips_util.Histogram
module Json = Trips_util.Json
module Pool = Trips_engine.Pool
module Service = Trips_harness.Service
module Registry = Trips_workloads.Registry

let host = "127.0.0.1"

(* The fixed shape of the benchmark: [repeat] requests per client per
   level, [burst] identical requests in the dedup phase, the levels'
   client counts, and the shed phase's distinct cold requests. *)
let repeat = 20
let burst = 16
let levels = [ 1; 4; 8 ]
let shed_requests = 32

type spec = { s_path : string; s_body : string }

let spec verb bench preset =
  match Service.make ~mode:"" ~verb ~bench ~preset with
  | Result.Ok r ->
    { s_path = Protocol.api_prefix ^ verb; s_body = Protocol.run_request_body r }
  | Result.Error msg -> failwith (verb ^ "/" ^ bench ^ ": " ^ msg)

let post ~port s = Client.post_json ~host ~port s.s_path s.s_body

let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Run [f] against an in-process server; returns [f]'s result and the
   pool counters after it. *)
let with_server ?cache_prefix ~workers ~queue_capacity f =
  let cache_dir = Option.map temp_dir cache_prefix in
  let t =
    Server.start
      { Server.default_config with Server.workers; queue_capacity; cache_dir }
  in
  let finish () =
    Server.stop t;
    Option.iter rm_rf cache_dir
  in
  Fun.protect ~finally:finish (fun () ->
      let r = f (Server.port t) in
      (r, Server.pool_stats t))

(* Fire every spec from its own thread at once; count the answers by
   status: 200, 429, anything else (other status or transport error). *)
let burst_at ~port specs =
  let ok = Atomic.make 0 and shed = Atomic.make 0 and other = Atomic.make 0 in
  let threads =
    List.map
      (fun s ->
        Thread.create
          (fun () ->
            match post ~port s with
            | Result.Ok { Http.status = 200; _ } -> Atomic.incr ok
            | Result.Ok { Http.status = 429; _ } -> Atomic.incr shed
            | _ -> Atomic.incr other)
          ())
      specs
  in
  List.iter Thread.join threads;
  (Atomic.get ok, Atomic.get shed, Atomic.get other)

(* -- phase 1: in-flight dedup ---------------------------------------- *)

(* One worker, cold cache, [burst] identical concurrent requests: the
   first admitted computes; everything arriving while it is queued or
   running coalesces; anything after completion hits the cache it wrote.
   computed stays 1 either way. *)
let run_dedup ~log =
  let (ok, shed, other), st =
    with_server ~cache_prefix:"trips-serve-dedup" ~workers:1 ~queue_capacity:16
      (fun port -> burst_at ~port (List.init burst (fun _ -> spec "simulate" "fft" "C")))
  in
  let failed = shed + other in
  log
    (Printf.sprintf
       "dedup: %d identical requests -> %d computed, %d coalesced, %d cache \
        hits, %d failed"
       burst st.Pool.executed st.Pool.coalesced st.Pool.cache_hits failed);
  Json.Obj
    [
      ("requests", Json.Int burst);
      ("ok", Json.Int ok);
      ("failed", Json.Int failed);
      ("computed", Json.Int st.Pool.executed);
      ("coalesced", Json.Int st.Pool.coalesced);
      ("cache_hits", Json.Int st.Pool.cache_hits);
      ( "coalesce_rate",
        Json.Float (float_of_int st.Pool.coalesced /. float_of_int burst) );
    ]

(* -- phase 2: throughput/latency sweep ------------------------------- *)

(* Closed loop: [concurrency] client threads each issue [repeat]
   requests back-to-back (a new connection per request), round-robining
   over the spec mix.  Offered load adapts to service rate, so the
   generator measures capacity; it cannot overrun the server except
   through concurrency itself. *)
type level = {
  concurrency : int;
  requests : int;
  ok : int;
  shed : int;        (* HTTP 429 *)
  failed : int;      (* transport errors and non-200/429 statuses *)
  wall_s : float;
  throughput_rps : float;
  hist : Histogram.t;  (* per-request latency, 200s only *)
}

(* Per-worker tallies, merged after the join — no shared mutable state on
   the hot path. *)
type tally = {
  mutable t_ok : int;
  mutable t_shed : int;
  mutable t_failed : int;
  t_hist : Histogram.t;
}

let run_level ~port ~concurrency spec_arr =
  let n_specs = Array.length spec_arr in
  let worker w =
    let t =
      { t_ok = 0; t_shed = 0; t_failed = 0; t_hist = Histogram.create () }
    in
    for i = 0 to repeat - 1 do
      (* round-robin across specs, offset per worker so concurrent
         workers spread over the mix *)
      let s = spec_arr.(((w * repeat) + i) mod n_specs) in
      let t0 = Unix.gettimeofday () in
      match post ~port s with
      | Result.Ok { Http.status = 200; _ } ->
        Histogram.observe t.t_hist (Unix.gettimeofday () -. t0);
        t.t_ok <- t.t_ok + 1
      | Result.Ok { Http.status = 429; _ } -> t.t_shed <- t.t_shed + 1
      | Result.Ok _ | Result.Error _ -> t.t_failed <- t.t_failed + 1
    done;
    t
  in
  let results = Array.make concurrency None in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init concurrency (fun w ->
        Thread.create (fun () -> results.(w) <- Some (worker w)) ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let hist = Histogram.create () in
  let ok = ref 0 and shed = ref 0 and failed = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some t ->
        ok := !ok + t.t_ok;
        shed := !shed + t.t_shed;
        failed := !failed + t.t_failed;
        Histogram.merge_into ~dst:hist t.t_hist)
    results;
  {
    concurrency;
    requests = concurrency * repeat;
    ok = !ok;
    shed = !shed;
    failed = !failed;
    wall_s;
    throughput_rps = (if wall_s > 0. then float_of_int !ok /. wall_s else 0.);
    hist;
  }

let level_json l =
  Json.Obj
    [
      ("concurrency", Json.Int l.concurrency);
      ("requests", Json.Int l.requests);
      ("ok", Json.Int l.ok);
      ("shed", Json.Int l.shed);
      ("failed", Json.Int l.failed);
      ("wall_s", Json.Float l.wall_s);
      ("throughput_rps", Json.Float l.throughput_rps);
      ("latency", Histogram.to_json l.hist);
    ]

let level_specs () =
  (* a mixed read-mostly workload over the first few registry benches;
     lint/compile/timing are cheap enough to sweep at depth *)
  List.filteri (fun i _ -> i < 4) Registry.all
  |> List.concat_map (fun (b : Registry.bench) ->
         let b = b.Registry.name in
         [ spec "timing" b "C"; spec "lint" b "C"; spec "compile" b "C" ])
  |> Array.of_list

(* A warmed 4-worker server swept at every level: every spec runs once
   first, so the sweep measures the steady state the daemon actually
   serves (cache + memo warm), not first-touch cost. *)
let run_levels ~log =
  let specs = level_specs () in
  with_server ~cache_prefix:"trips-serve-levels" ~workers:4
    ~queue_capacity:256 (fun port ->
      Array.iter (fun s -> ignore (post ~port s)) specs;
      List.map
        (fun concurrency ->
          let l = run_level ~port ~concurrency specs in
          log
            (Printf.sprintf
               "level c=%-3d %d requests  %.0f req/s  p50 %.4fs  p99 %.4fs  \
                (%d shed, %d failed)"
               concurrency l.requests l.throughput_rps
               (Histogram.quantile l.hist 0.5)
               (Histogram.quantile l.hist 0.99)
               l.shed l.failed);
          l)
        levels)

(* -- phase 3: saturation shed ---------------------------------------- *)

let shed_specs () =
  (* distinct cold keys: every verb x the benches x both qualities,
     trimmed to [shed_requests] *)
  Registry.all
  |> List.concat_map (fun (b : Registry.bench) ->
         let b = b.Registry.name in
         List.concat_map
           (fun v -> [ spec v b "C"; spec v b "H" ])
           [ "simulate"; "timing"; "compile"; "lint"; "transval" ])
  |> List.filteri (fun i _ -> i < shed_requests)

(* Distinct cold requests against a 1-worker, 2-deep-queue server with
   no cache: the overflow must come back as explicit 429s, not hang. *)
let run_shed ~log =
  let (ok, shed, other), st =
    with_server ~workers:1 ~queue_capacity:2 (fun port ->
        burst_at ~port (shed_specs ()))
  in
  log
    (Printf.sprintf "shed: %d distinct requests -> %d ok, %d shed, %d other"
       shed_requests ok shed other);
  Json.Obj
    [
      ("requests", Json.Int shed_requests);
      ("ok", Json.Int ok);
      ("shed", Json.Int shed);
      ("other", Json.Int other);
      ("pool_shed", Json.Int st.Pool.shed);
    ]

(* -- report ----------------------------------------------------------- *)

let report ~log =
  let dedup = run_dedup ~log in
  let level_results, pool = run_levels ~log in
  let shed = run_shed ~log in
  let peak_tp, peak_p50, peak_p99 =
    match level_results with
    | [] -> (0., 0., 0.)
    | l0 :: rest ->
      (* the first level with the highest throughput *)
      let l =
        List.fold_left
          (fun b l -> if b.throughput_rps >= l.throughput_rps then b else l)
          l0 rest
      in
      ( l.throughput_rps,
        Histogram.quantile l.hist 0.5,
        Histogram.quantile l.hist 0.99 )
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("dedup", dedup);
      ("levels", Json.List (List.map level_json level_results));
      ("shed", shed);
      ("peak_throughput_rps", Json.Float peak_tp);
      ("peak_p50_s", Json.Float peak_p50);
      ("peak_p99_s", Json.Float peak_p99);
      ( "sweep_cache_hit_rate",
        Json.Float
          (if pool.Pool.submitted = 0 then 0.
           else
             float_of_int (pool.Pool.cache_hits + pool.Pool.coalesced)
             /. float_of_int pool.Pool.submitted) );
    ]
