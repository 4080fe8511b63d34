(* The serve workload: an in-process [Server] at its default
   configuration (4 workers) and a fresh result-cache directory, driven
   over loopback HTTP.

   The load is a closed loop of two client threads, one connection per
   request, because the service's callers (the CLI, CI jobs) each wait
   for their reply.  The read keys are the read mix of the level sweep in
   bench/serve_bench.ml: {timing, lint, compile} x the first four
   registry programs x C, warmed once.  The repository holds no request
   log, so the rest is assumed: every 15th request of a client is a cold
   key, which computes and then fsyncs a result-cache store.  A change
   that speeds reads at the cost of writes therefore shows in the tail.

   Each pass is one daemon lifetime: in-process memo tables cleared, a
   new cache directory, start, warm, the request script, stop.  Every
   pass sends each cold key exactly once, so every run does the same
   work whatever its seed; the seed orders the cold keys and draws the
   reads. *)

module Server = Trips_serve.Server
module Client = Trips_serve.Client
module Protocol = Trips_serve.Protocol
module Http = Trips_serve.Http
module Service = Trips_harness.Service
module Platforms = Trips_harness.Platforms
module Pool = Trips_engine.Pool
module Result_cache = Trips_engine.Result_cache
module Registry = Trips_workloads.Registry
module Json = Trips_util.Json

let host = "127.0.0.1"
let clients = 2
let cold_every = 15

type key = { req : Service.request; path : string; body : string }

let key verb preset bench =
  match Service.make ~mode:"" ~verb ~bench ~preset with
  | Ok req ->
    { req; path = Protocol.api_prefix ^ verb; body = Protocol.run_request_body req }
  | Error e -> failwith e

let warm_benches =
  List.filteri (fun i _ -> i < 4) Registry.all
  |> List.map (fun (b : Registry.bench) -> b.Registry.name)

let warm_keys =
  Array.of_list
    (List.concat_map
       (fun b -> [ key "timing" "C" b; key "lint" "C" b; key "compile" "C" b ])
       warm_benches)

(* Cold keys of three costs: an unoptimized compile (milliseconds), a
   basic-block lint (tens of milliseconds) and a detailed simulation
   (about 0.1 s).  No simulated program is warmed, so each simulation
   compiles its program too. *)
let sim_benches =
  [ "fft"; "aifftr"; "iirflt"; "canrdr"; "apsi"; "wupwise"; "pntrch"; "puwmod" ]

let cold_keys =
  Array.of_list
    (List.map (key "compile" "O0")
       [ "fft"; "aifftr"; "canrdr"; "iirflt"; "pntrch"; "puwmod"; "rgbcmy"; "rgbyiq" ]
    @ List.map (key "lint" "BB")
        [ "ct"; "conv"; "matrix"; "fmradio"; "fft"; "aifirf"; "text"; "pktflow" ]
    @ List.map (key "simulate" "C") sim_benches)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let row_value v name =
  Option.bind (Json.member "result" v) (fun res ->
      Option.bind (Json.member "rows" res) Json.as_list)
  |> Option.value ~default:[]
  |> List.find_map (function
       | Json.List [ Json.Str n; Json.Str x ] when n = name -> Some x
       | _ -> None)

(* A recorded value a response must repeat: simulated cycles, or the
   compiled block count. *)
let recorded exp (r : Service.request) =
  match (Service.verb_name r.Service.verb, r.Service.preset) with
  | "simulate", "C" ->
    Option.map
      (fun c -> ("cycles", c))
      (Expected.int_field exp ~bench:r.Service.bench "detail" "cycles")
  | "compile", "C" ->
    Option.map
      (fun n -> ("blocks", n))
      (Expected.int_field exp ~bench:r.Service.bench "compile" "edge_blocks")
  | _ -> None

let check exp k ~origin (reply : (Http.response, string) result) =
  match reply with
  | Error e -> Error e
  | Ok { Http.status; r_body; _ } when status <> 200 ->
    Error (Printf.sprintf "HTTP %d: %s" status r_body)
  | Ok { Http.r_body; _ } -> (
    match Json.parse r_body with
    | Error e -> Error ("bad JSON: " ^ e)
    | Ok v ->
      let got = Json.mem_str "origin" v in
      if Json.member "ok" v <> Some (Json.Bool true) then Error "ok is not true"
      else if got <> Some origin then
        Error
          (Printf.sprintf "origin %s, wanted %s"
             (Option.value ~default:"-" got) origin)
      else
        match recorded exp k.req with
        | Some (row, want) when row_value v row <> Some (string_of_int want) ->
          Error (Printf.sprintf "%s is not the recorded %d" row want)
        | _ -> Ok ())

(* One client's closed loop: send each request once the previous reply
   is in; return every reply with its start and latency.  Replies are
   checked after the loop, so the client holds the domain lock the
   server's threads need for as little time as possible. *)
let closed_loop ~port script =
  Array.map
    (fun (k, _) ->
      let t0 = Unix.gettimeofday () in
      let reply = Client.post_json ~host ~port k.path k.body in
      (reply, t0, Unix.gettimeofday () -. t0))
    script

let reply_op run exp ~origin ~what k reply =
  let ok = check exp k ~origin reply in
  Run.op run ~ok:(Result.is_ok ok)
    (Printf.sprintf "%s %s: %s" what (Service.id_of k.req)
       (match ok with Ok () -> "" | Error e -> e))

(* Benchmark-side calls into the cache and protocol layers over this
   pass's keys, bodies and tables; each reports seconds per call. *)
let standalone run ~dir scripts =
  let per_call name calls f =
    let n = List.length calls in
    let _, dt =
      Span.measure ~args:[ ("calls", Json.Int n) ] name (fun () -> List.iter f calls)
    in
    Run.add run name (Run.ratio dt (float_of_int n))
  in
  let cache = Result_cache.open_ dir in
  let found =
    List.filter_map
      (fun k -> Option.map (fun t -> (k, t)) (Result_cache.find cache ~key:(Service.cache_key k.req)))
      (Array.to_list warm_keys)
  in
  per_call "Trips_engine.Result_cache.find" (Array.to_list warm_keys) (fun k ->
      ignore (Result_cache.find cache ~key:(Service.cache_key k.req)));
  let probe = Result_cache.open_ (dir ^ "-probe") in
  per_call "Trips_engine.Result_cache.store" found (fun (k, t) ->
      Result_cache.store probe ~key:("perf-probe/" ^ Service.id_of k.req) t);
  rm_rf (dir ^ "-probe");
  per_call "Trips_serve.Protocol.parse_run_request"
    (List.concat_map (fun s -> List.map fst (Array.to_list s)) scripts)
    (fun k -> ignore (Protocol.parse_run_request ~verb_token:"run" k.body));
  per_call "Trips_serve.Protocol.result_body" found (fun (k, t) ->
      ignore (Protocol.result_body k.req ~origin:"cache" ~elapsed_s:0.001 t))

(* Per client, its request script: (key, is_cold).  Cold keys go out in
   fixed pairs, one to each client at the same point of its script,
   [cold_every - 1] reads before each; the seed orders the pairs.  So the
   cold keys that run at the same time are the same in every run, and
   the seed cannot change how much server work overlaps. *)
let scripts run =
  let pairs = Array.length cold_keys / clients in
  let order = Run.shuffled run (Array.init pairs Fun.id) in
  List.init clients (fun c ->
      Array.init (cold_every * pairs) (fun i ->
          if i mod cold_every = cold_every - 1 then
            (cold_keys.((c * pairs) + order.(i / cold_every)), true)
          else
            (warm_keys.(Trips_util.Rng.int run.Run.rng (Array.length warm_keys)), false)))

let pass run exp ~dir ~traced =
  let server =
    Run.setup run (fun () ->
        (* the simulate verb checks every result against the reference
           interpreter; that reference is computed once per process *)
        List.iter (fun b -> ignore (Registry.golden (Registry.find b))) sim_benches;
        Platforms.clear_caches ();
        rm_rf dir;
        let s = Server.start { Server.default_config with cache_dir = Some dir } in
        let warm = Array.map (fun k -> (k, false)) warm_keys in
        Array.iteri
          (fun i (reply, _, _) ->
            reply_op run exp ~origin:"computed" ~what:"warm" warm_keys.(i) reply)
          (closed_loop ~port:(Server.port s) warm);
        s)
  in
  let scripts = scripts run in
  let st0 = Server.pool_stats server in
  let pass =
    Run.timed_pass run ~traced (fun () ->
        (* the host's speed just before and just after the load, while
           the server is idle *)
        Run.calibrate ~samples:5 run;
        let before = run.Run.scale in
        let results = Array.make clients [||] in
        let threads =
          List.mapi
            (fun c script ->
              Thread.create
                (fun () -> results.(c) <- closed_loop ~port:(Server.port server) script)
                ())
            scripts
        in
        List.iter Thread.join threads;
        Run.calibrate ~samples:5 run;
        run.Run.scale <- (before +. run.Run.scale) /. 2.;
        List.iteri
          (fun c script ->
            Array.iteri
              (fun i (k, cold) ->
                let reply, t0, dt = results.(c).(i) in
                Span.add "Trips_serve request" ~start:t0 ~dur:dt
                  ~args:[ ("key", Json.Str (Service.id_of k.req)) ];
                reply_op run exp
                  ~origin:(if cold then "computed" else "cache")
                  ~what:"request" k reply;
                Run.record run (Service.id_of k.req) dt)
              script)
          scripts;
        0.)
  in
  if traced then begin
    let st = Server.pool_stats server in
    Run.addi run "pool.executed" (st.Pool.executed - st0.Pool.executed);
    Run.addi run "pool.submitted" (st.Pool.submitted - st0.Pool.submitted);
    Run.addi run "pool.cache_hits" (st.Pool.cache_hits - st0.Pool.cache_hits);
    Run.add run "pool.busy_s" (st.Pool.busy_s -. st0.Pool.busy_s);
    standalone run ~dir scripts
  end;
  Server.stop server;
  rm_rf dir;
  { pass with Run.own = pass.Run.wall }

let run run exp =
  let dir = Filename.concat Out.dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Out.ensure ();
  Run.passes run (fun ~traced -> pass run exp ~dir ~traced)

(* Latencies in ms of the untraced passes' reads ([hit]) or cold keys. *)
let latencies run ~hit =
  let warm = Array.map (fun k -> Service.id_of k.req) warm_keys in
  List.concat_map
    (fun p ->
      List.filter_map
        (fun o ->
          if Array.mem o.Run.key warm = hit then Some (1000. *. o.Run.dt) else None)
        p.Run.ops)
    (Run.untraced run)

let layers run =
  let g = Run.get run and pp = Run.per_pass run in
  let busy_ms = 1000. *. Run.ratio (g "pool.busy_s") (g "pool.executed") in
  let hit = latencies run ~hit:true and miss = latencies run ~hit:false in
  [
    ("pool.executed", pp "pool.executed");
    ("pool.cache_hits", pp "pool.cache_hits");
    ("pool.busy_ms_per_job", busy_ms);
    ("pool.hit_ratio", Run.ratio (g "pool.cache_hits") (g "pool.submitted"));
    ("serve.hit_p50_ms", Run.median hit);
    ("serve.hit_p99_ms", Run.percentile hit 99.);
    ("serve.miss_p50_ms", Run.median miss);
    ("serve.miss_p95_ms", Run.percentile miss 95.);
    ("serve.miss_overhead_ms", Run.ratio (Run.sum miss) (float_of_int (List.length miss)) -. busy_ms);
    ("result_cache.find_us", 1e6 *. pp "Trips_engine.Result_cache.find");
    ("result_cache.store_ms", 1e3 *. pp "Trips_engine.Result_cache.store");
    ("protocol.parse_us", 1e6 *. pp "Trips_serve.Protocol.parse_run_request");
    ("protocol.result_body_us", 1e6 *. pp "Trips_serve.Protocol.result_body");
  ]
