module Json = Trips_util.Json
module Histogram = Trips_util.Histogram
module Pool = Trips_engine.Pool
module Result_cache = Trips_engine.Result_cache
module Service = Trips_harness.Service

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  cache_dir : string option;
  conn_timeout_s : float;
  verbose : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_capacity = 64;
    cache_dir = None;
    conn_timeout_s = 30.;
    verbose = false;
  }

type metrics = {
  m_lock : Mutex.t;
  m_started : float;
  m_latency : Histogram.t;              (* run-request service time *)
  m_by_verb : (string, int) Hashtbl.t;
  m_by_status : (int, int) Hashtbl.t;
  mutable m_connections : int;          (* accepted, lifetime *)
  mutable m_requests : int;             (* HTTP requests handled *)
  mutable m_bad_requests : int;         (* malformed / oversized / unroutable *)
}

type t = {
  cfg : config;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;             (* self-pipe wakes the accept loop *)
  stop_w : Unix.file_descr;
  lock : Mutex.t;
  cond : Condition.t;
  mutable stopping : bool;
  mutable active_conns : int;
  mutable accept_thread : Thread.t option;
  metrics : metrics;
}

let port t = t.bound_port

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("trips_serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let now = Unix.gettimeofday

let tally tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* ------------------------------------------------------------------ *)
(* Introspection bodies                                                *)
(* ------------------------------------------------------------------ *)

let health_body t =
  let s = Pool.stats t.pool in
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str (if t.stopping then "stopping" else "ok"));
         ("uptime_s", Json.Float (now () -. t.metrics.m_started));
         ("workers", Json.Int s.Pool.workers);
         ("queued", Json.Int s.Pool.queued);
         ("running", Json.Int s.Pool.running);
       ])

let metrics_body t =
  let m = t.metrics in
  let s = Pool.stats t.pool in
  Mutex.lock m.m_lock;
  let by_verb =
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) m.m_by_verb []
    |> List.sort compare
  in
  let by_status =
    Hashtbl.fold
      (fun k v acc -> (string_of_int k, Json.Int v) :: acc)
      m.m_by_status []
    |> List.sort compare
  in
  let latency = Histogram.to_json m.m_latency in
  let requests = m.m_requests in
  let connections = m.m_connections in
  let bad = m.m_bad_requests in
  Mutex.unlock m.m_lock;
  Json.to_string
    (Json.Obj
       [
         ("uptime_s", Json.Float (now () -. m.m_started));
         ("connections", Json.Int connections);
         ("requests", Json.Int requests);
         ("bad_requests", Json.Int bad);
         ("by_verb", Json.Obj by_verb);
         ("by_status", Json.Obj by_status);
         ("latency", latency);
         ( "pool",
           Json.Obj
             [
               ("workers", Json.Int s.Pool.workers);
               ("queued", Json.Int s.Pool.queued);
               ("running", Json.Int s.Pool.running);
               ("submitted", Json.Int s.Pool.submitted);
               ("executed", Json.Int s.Pool.executed);
               ("failed", Json.Int s.Pool.failed);
               ("shed", Json.Int s.Pool.shed);
               ("cache_hits", Json.Int s.Pool.cache_hits);
               ("coalesced", Json.Int s.Pool.coalesced);
               ("cancelled", Json.Int s.Pool.cancelled);
               ("dropped", Json.Int s.Pool.dropped);
               ("busy_s", Json.Float s.Pool.busy_s);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* status, body, extra headers *)
let dispatch t (req : Http.request) : int * string * (string * string) list =
  match (req.Http.meth, Protocol.route_of_path req.Http.path) with
  | "GET", Protocol.Health -> (200, health_body t, [])
  | "GET", Protocol.Metrics -> (200, metrics_body t, [])
  | "GET", Protocol.Catalog -> (200, Protocol.catalog_body (), [])
  | ("GET" | "HEAD"), (Protocol.Run _ | Protocol.Unknown) ->
    (404, Protocol.error_body ~code:"not-found" "no such endpoint", [])
  | "POST", Protocol.Run verb_token -> (
    match Protocol.parse_run_request ~verb_token req.Http.body with
    | Result.Error msg -> (400, Protocol.error_body ~code:"bad-request" msg, [])
    | Result.Ok r -> (
      let t0 = now () in
      match
        Pool.submit t.pool ~cache_key:(Service.cache_key r)
          ~id:(Service.id_of r)
          (fun () -> Service.run r)
      with
      | Pool.Shed ->
        ( 429,
          Protocol.error_body ~code:"saturated"
            "admission queue full; retry with back-off",
          [ ("Retry-After", "1") ] )
      | Pool.Closed ->
        ( 503,
          Protocol.error_body ~code:"shutting-down"
            "server is draining; no new work admitted",
          [ ("Connection", "close") ] )
      | Pool.Admitted ticket -> (
        match Pool.await ticket with
        | Pool.Done (table, origin) ->
          let dt = now () -. t0 in
          let m = t.metrics in
          Mutex.lock m.m_lock;
          Histogram.observe m.m_latency dt;
          tally m.m_by_verb (Service.verb_name r.Service.verb);
          Mutex.unlock m.m_lock;
          ( 200,
            Protocol.result_body r ~origin:(Pool.origin_name origin)
              ~elapsed_s:dt table,
            [] )
        | Pool.Error msg ->
          (500, Protocol.error_body ~code:"job-failed" msg, []))))
  | _, (Protocol.Health | Protocol.Metrics | Protocol.Catalog) ->
    (405, Protocol.error_body ~code:"method-not-allowed" "use GET", [])
  | _, Protocol.Run _ ->
    (405, Protocol.error_body ~code:"method-not-allowed" "use POST", [])
  | _, Protocol.Unknown ->
    (404, Protocol.error_body ~code:"not-found" "no such endpoint", [])

let record_status t status =
  let m = t.metrics in
  Mutex.lock m.m_lock;
  m.m_requests <- m.m_requests + 1;
  if status >= 400 then m.m_bad_requests <- m.m_bad_requests + 1;
  tally m.m_by_status status;
  Mutex.unlock m.m_lock

let handle_connection t fd =
  let respond ?(extra = []) ~close status body =
    let headers =
      extra @ if close then [ ("Connection", "close") ] else []
    in
    record_status t status;
    Http.write_all fd (Http.response_string ~headers ~status ~body ())
  in
  let rec serve_one () =
    match Http.read_request fd with
    | Http.Eof -> ()
    | Http.Malformed msg ->
      respond ~close:true 400 (Protocol.error_body ~code:"bad-request" msg)
    | Http.Oversized msg ->
      respond ~close:true 413 (Protocol.error_body ~code:"too-large" msg)
    | Http.Request req ->
      let status, body, extra = dispatch t req in
      let client_close =
        match Http.header req "connection" with
        | Some v -> String.lowercase_ascii v = "close"
        | None -> req.Http.version = "HTTP/1.0"
      in
      let close =
        client_close || t.stopping
        || List.mem_assoc "Connection" extra
      in
      respond ~extra ~close status body;
      log t "%s %s -> %d" req.Http.meth req.Http.path status;
      if not close then serve_one ()
  in
  (try serve_one ()
   with e -> log t "connection error: %s" (Printexc.to_string e));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.lock;
  t.active_conns <- t.active_conns - 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)
(* ------------------------------------------------------------------ *)

let accept_loop t () =
  let rec loop () =
    let ready, _, _ =
      try Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.stop_r ready then ()
    else if List.mem t.listen_fd ready then begin
      match Unix.accept t.listen_fd with
      | fd, _ ->
        (* a stuck or silent client must not pin its thread forever *)
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.conn_timeout_s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.conn_timeout_s
         with Unix.Unix_error _ -> ());
        Mutex.lock t.lock;
        t.active_conns <- t.active_conns + 1;
        Mutex.unlock t.lock;
        Mutex.lock t.metrics.m_lock;
        t.metrics.m_connections <- t.metrics.m_connections + 1;
        Mutex.unlock t.metrics.m_lock;
        ignore (Thread.create (handle_connection t) fd);
        loop ()
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
        loop ()
      | exception Unix.Unix_error _ -> if t.stopping then () else loop ()
    end
    else loop ()
  in
  loop ()

let start cfg =
  let inet =
    try Unix.inet_addr_of_string cfg.host
    with Failure _ -> (
      match Unix.gethostbyname cfg.host with
      | { Unix.h_addr_list = [||]; _ } ->
        invalid_arg ("cannot resolve host " ^ cfg.host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found -> invalid_arg ("cannot resolve host " ^ cfg.host))
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try Unix.bind listen_fd (Unix.ADDR_INET (inet, cfg.port))
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 128;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let stop_r, stop_w = Unix.pipe () in
  let cache = Option.map Result_cache.open_ cfg.cache_dir in
  let pool =
    Pool.create ~workers:cfg.workers ~queue_capacity:cfg.queue_capacity ?cache
      ()
  in
  let t =
    {
      cfg;
      pool;
      listen_fd;
      bound_port;
      stop_r;
      stop_w;
      lock = Mutex.create ();
      cond = Condition.create ();
      stopping = false;
      active_conns = 0;
      accept_thread = None;
      metrics =
        {
          m_lock = Mutex.create ();
          m_started = now ();
          m_latency = Histogram.create ();
          m_by_verb = Hashtbl.create 8;
          m_by_status = Hashtbl.create 8;
          m_connections = 0;
          m_requests = 0;
          m_bad_requests = 0;
        };
    }
  in
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let request_stop t =
  Mutex.lock t.lock;
  let first = not t.stopping in
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  if first then
    (* wake the accept loop; a single byte suffices *)
    try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let stop t =
  request_stop t;
  (match t.accept_thread with
  | Some th ->
    Thread.join th;
    t.accept_thread <- None
  | None -> ());
  (* connections already accepted run to completion: their in-flight jobs
     settle below, and keep-alive loops close after the next response *)
  Pool.shutdown t.pool;
  Mutex.lock t.lock;
  while t.active_conns > 0 do
    Condition.wait t.cond t.lock
  done;
  Mutex.unlock t.lock;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listen_fd; t.stop_r; t.stop_w ]

let pool_stats t = Pool.stats t.pool
