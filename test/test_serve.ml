(* Tests for the trips_serve subsystem: the HTTP front door, the JSON
   codec and protocol, the latency histogram, and an end-to-end daemon
   round trip asserting that concurrent identical requests run exactly
   one underlying job, and the invariants of the load report. *)

module Json = Trips_util.Json
module Histogram = Trips_util.Histogram
module Http = Trips_serve.Http
module Protocol = Trips_serve.Protocol
module Server = Trips_serve.Server
module Client = Trips_serve.Client
module Service = Trips_harness.Service
module Preset = Trips_workloads.Preset
module Pool = Trips_engine.Pool

let ok_request = function
  | Result.Ok (r : Http.request) -> r
  | Result.Error e -> Alcotest.fail ("parse_request: " ^ e)

(* -- HTTP parsing ------------------------------------------------------ *)

let test_http_get_roundtrip () =
  let r =
    ok_request
      (Http.parse_request
         "GET /api/v1/verbs?x=1&name=a%20b HTTP/1.1\r\n\
          Host: localhost\r\nAccept: */*\r\n\r\n")
  in
  Alcotest.(check string) "method" "GET" r.Http.meth;
  Alcotest.(check string) "path" "/api/v1/verbs" r.Http.path;
  Alcotest.(check (list (pair string string)))
    "query percent-decoded"
    [ ("x", "1"); ("name", "a b") ]
    r.Http.query;
  Alcotest.(check string) "version" "HTTP/1.1" r.Http.version;
  Alcotest.(check (option string)) "header lookup is case-insensitive"
    (Some "localhost") (Http.header r "HOST");
  Alcotest.(check string) "no body" "" r.Http.body

let test_http_post_body () =
  let body = {|{"bench":"fft"}|} in
  let raw =
    Printf.sprintf
      "POST /api/v1/timing HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let r = ok_request (Http.parse_request raw) in
  Alcotest.(check string) "body delivered intact" body r.Http.body

let test_http_lf_only_head () =
  (* bare-LF separators are tolerated, as from hand-typed netcat *)
  let r =
    ok_request (Http.parse_request "GET /health HTTP/1.0\nHost: x\n\n")
  in
  Alcotest.(check string) "path" "/health" r.Http.path;
  Alcotest.(check string) "version" "HTTP/1.0" r.Http.version

let expect_error what = function
  | Result.Ok (_ : Http.request) -> Alcotest.fail (what ^ ": expected error")
  | Result.Error (_ : string) -> ()

let test_http_malformed () =
  expect_error "bad version"
    (Http.parse_request "GET / HTTP/2.0\r\n\r\n");
  expect_error "no request line" (Http.parse_request "\r\n\r\n");
  expect_error "body shorter than content-length"
    (Http.parse_request "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  expect_error "negative content-length"
    (Http.parse_request "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
  expect_error "no blank line" (Http.parse_request "GET / HTTP/1.1\r\n")

let test_http_response_roundtrip () =
  let raw =
    Http.response_string
      ~headers:[ ("Retry-After", "1") ]
      ~status:429 ~body:{|{"ok":false}|} ()
  in
  match Http.parse_response raw with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok resp ->
    Alcotest.(check int) "status" 429 resp.Http.status;
    Alcotest.(check (option string)) "custom header" (Some "1")
      (Http.response_header resp "retry-after");
    Alcotest.(check (option string)) "content-type defaulted"
      (Some "application/json")
      (Http.response_header resp "content-type");
    Alcotest.(check string) "body" {|{"ok":false}|} resp.Http.r_body

(* -- JSON parser ------------------------------------------------------- *)

let parse_ok s =
  match Json.parse s with
  | Result.Ok v -> v
  | Result.Error e -> Alcotest.fail (s ^ ": " ^ e)

let test_json_parse_values () =
  Alcotest.(check (option string)) "string member" (Some "fft")
    (Json.mem_str "bench" (parse_ok {|{"bench":"fft","n":3}|}));
  Alcotest.(check (option int)) "int member" (Some 3)
    (Json.mem_int "n" (parse_ok {|{"bench":"fft","n":3}|}));
  Alcotest.(check (option bool)) "bool" (Some true)
    (Json.as_bool (parse_ok "true"));
  (match Json.as_float (parse_ok "-1.5e2") with
  | Some f -> Alcotest.(check (float 1e-9)) "float" (-150.) f
  | None -> Alcotest.fail "float");
  Alcotest.(check (option string)) "unicode escape" (Some "a\xc3\xa9b")
    (Json.as_str (parse_ok {|"aéb"|}));
  match Json.as_list (parse_ok {|[1, "x", null]|}) with
  | Some [ _; _; Json.Null ] -> ()
  | _ -> Alcotest.fail "list shape"

let test_json_parse_rejects () =
  let bad s =
    match Json.parse s with
    | Result.Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Result.Error _ -> ()
  in
  bad "";
  bad "{";
  bad {|{"a":1,}|};
  bad "[1 2]";
  bad {|"unterminated|};
  bad "01";
  bad {|{"a":1} trailing|};
  bad "nul"

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "he\"llo\n");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.25);
        ("b", Json.Bool false);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x" ]);
      ]
  in
  Alcotest.(check bool) "to_string then parse is identity" true
    (parse_ok (Json.to_string v) = v)

(* -- Protocol ---------------------------------------------------------- *)

let test_protocol_routes () =
  let is_run p v =
    match Protocol.route_of_path p with
    | Protocol.Run x -> x = v
    | _ -> false
  in
  Alcotest.(check bool) "health" true
    (Protocol.route_of_path "/health" = Protocol.Health);
  Alcotest.(check bool) "metrics" true
    (Protocol.route_of_path "/metrics" = Protocol.Metrics);
  Alcotest.(check bool) "catalog" true
    (Protocol.route_of_path "/api/v1/verbs" = Protocol.Catalog);
  Alcotest.(check bool) "verb route" true (is_run "/api/v1/timing" "timing");
  Alcotest.(check bool) "nested is unknown" true
    (Protocol.route_of_path "/api/v1/timing/x" = Protocol.Unknown);
  Alcotest.(check bool) "root is unknown" true
    (Protocol.route_of_path "/" = Protocol.Unknown)

let test_protocol_parse_run_request () =
  (match Protocol.parse_run_request ~verb_token:"timing" {|{"bench":"fft"}|} with
  | Result.Ok r ->
    Alcotest.(check string) "verb" "timing" (Service.verb_name r.Service.verb);
    Alcotest.(check string) "bench" "fft" r.Service.bench;
    Alcotest.(check string) "preset defaulted" "C" r.Service.preset
  | Result.Error e -> Alcotest.fail e);
  (match
     Protocol.parse_run_request ~verb_token:"run"
       {|{"verb":"lint","bench":"fft","preset":"H"}|}
   with
  | Result.Ok r ->
    Alcotest.(check string) "verb from body" "lint"
      (Service.verb_name r.Service.verb);
    Alcotest.(check string) "preset" "H" r.Service.preset
  | Result.Error e -> Alcotest.fail e);
  let bad token body =
    match Protocol.parse_run_request ~verb_token:token body with
    | Result.Ok _ -> Alcotest.fail ("accepted: " ^ token ^ " " ^ body)
    | Result.Error (_ : string) -> ()
  in
  (match
     Protocol.parse_run_request ~verb_token:"simulate"
       {|{"bench":"fft","mode":"sampled"}|}
   with
  | Result.Ok r ->
    Alcotest.(check string) "mode" "sampled" r.Service.mode
  | Result.Error e -> Alcotest.fail e);
  bad "timing" "not json";
  bad "timing" {|{"nobench":1}|};
  bad "timing" {|{"bench":"nosuchbench"}|};
  bad "frobnicate" {|{"bench":"fft"}|};
  bad "timing" {|{"bench":"fft","preset":"O9"}|};
  bad "timing" {|{"bench":"fft","mode":"sampled"}|};
  bad "simulate" {|{"bench":"fft","mode":"warp"}|};
  bad "run" {|{"bench":"fft"}|}

let test_service_cache_key_distinguishes () =
  let key verb bench preset =
    match Service.make ~mode:"" ~verb ~bench ~preset with
    | Result.Ok r -> Service.cache_key r
    | Result.Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "verb matters" true
    (key "timing" "fft" "C" <> key "simulate" "fft" "C");
  Alcotest.(check bool) "bench matters" true
    (key "timing" "fft" "C" <> key "timing" "conv" "C");
  Alcotest.(check bool) "preset matters" true
    (key "timing" "fft" "C" <> key "timing" "fft" "H");
  Alcotest.(check string) "stable across calls" (key "lint" "fft" "C")
    (key "lint" "fft" "C");
  let keym mode =
    match Service.make ~mode ~verb:"simulate" ~bench:"fft" ~preset:"C" with
    | Result.Ok r -> Service.cache_key r
    | Result.Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "mode matters" true (keym "detail" <> keym "sampled");
  Alcotest.(check string) "empty mode is detail" (keym "") (keym "detail")

(* -- Preset vocabulary -------------------------------------------------- *)

(* Every spelling the CLI's preset table or serve's canonicalization
   accepted before the two shared one parser, with its canonical name and
   the compiler preset's [pname]. *)
let legacy_spellings =
  [
    ("O0", "O0", "O0"); ("o0", "O0", "O0");
    ("C", "C", "compiled"); ("c", "C", "compiled");
    ("compiled", "C", "compiled");
    ("H", "H", "hand"); ("h", "H", "hand"); ("hand", "H", "hand");
    ("BB", "BB", "basic-blocks"); ("bb", "BB", "basic-blocks");
    ("Bb", "BB", "basic-blocks"); ("bB", "BB", "basic-blocks");
    ("basic-blocks", "BB", "basic-blocks");
    ("BASIC-BLOCKS", "BB", "basic-blocks");
    ("Basic-Blocks", "BB", "basic-blocks");
  ]

let test_preset_spellings () =
  List.iter
    (fun (s, name, pname) ->
      match Preset.of_string s with
      | Some p ->
        Alcotest.(check string) (s ^ " name") name (Preset.name p);
        Alcotest.(check string) (s ^ " pname") pname
          (Preset.driver p).Trips_compiler.Driver.pname
      | None -> Alcotest.fail ("refused " ^ s))
    legacy_spellings;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " refused") true (Preset.of_string s = None))
    [ ""; "O9"; "Z"; "fast"; "hand-optimized"; "basic_blocks" ];
  Alcotest.(check (list string)) "all" [ "O0"; "C"; "H"; "BB" ]
    (List.map Preset.name Preset.all)

let test_service_preset_spellings () =
  let preset verb p =
    match Service.make ~mode:"" ~verb ~bench:"fft" ~preset:p with
    | Result.Ok r -> Result.Ok r.Service.preset
    | Result.Error e -> Result.Error e
  in
  let check verb p expect =
    Alcotest.(check (result string string)) (verb ^ " " ^ p) expect (preset verb p)
  in
  (* the CLI's long names now reach serve too *)
  check "lint" "hand" (Ok "H");
  check "compile" "compiled" (Ok "C");
  check "timing" "hand" (Ok "H");
  check "simulate" "Compiled" (Ok "C");
  check "lint" "Basic-Blocks" (Ok "BB");
  check "lint" "" (Ok "C");
  (* C/H-only verbs refuse the ablation presets, with the same text *)
  check "timing" "O0"
    (Error {|unknown preset "O0" for verb timing (one of: C, H)|});
  check "simulate" "BB"
    (Error {|unknown preset "BB" for verb simulate (one of: C, H)|});
  check "simulate" "basic-blocks"
    (Error {|unknown preset "basic-blocks" for verb simulate (one of: C, H)|});
  check "lint" "O9"
    (Error {|unknown preset "O9" for verb lint (one of: O0, C, H, BB)|})

(* -- Histogram --------------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.observe h (float_of_int i *. 1e-4) (* 0.1ms .. 100ms *)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.quantile h 0.5 and p99 = Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p50 near the middle" true (p50 > 0.02 && p50 < 0.1);
  Alcotest.(check bool) "p99 above p50" true (p99 >= p50);
  Alcotest.(check bool) "p99 at most the max" true
    (p99 <= Histogram.max_value h +. 1e-9)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 0.001; 0.002 ];
  List.iter (Histogram.observe b) [ 0.004; 0.008; 0.016 ];
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "merged count" 5 (Histogram.count a);
  Alcotest.(check (float 1e-9)) "merged total" 0.031 (Histogram.total a);
  Alcotest.(check (float 1e-9)) "merged max" 0.016 (Histogram.max_value a)

(* -- End to end -------------------------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trips-serve-test-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Trips_engine.Result_cache.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then (
          Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
          Unix.rmdir p)
        else Sys.remove p
      in
      try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let host = "127.0.0.1"

let with_server ?(workers = 2) ?(queue_capacity = 32) ?cache_dir f =
  let t =
    Server.start
      {
        Server.default_config with
        Server.workers;
        queue_capacity;
        cache_dir;
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let test_e2e_health_and_metrics () =
  with_server @@ fun t ->
  let port = Server.port t in
  (match Client.get ~host ~port "/health" with
  | Result.Ok resp ->
    Alcotest.(check int) "health 200" 200 resp.Http.status;
    Alcotest.(check (option string)) "health ok" (Some "ok")
      (Json.mem_str "status" (parse_ok resp.Http.r_body))
  | Result.Error e -> Alcotest.fail e);
  (match Client.get ~host ~port "/metrics" with
  | Result.Ok resp ->
    Alcotest.(check int) "metrics 200" 200 resp.Http.status;
    let v = parse_ok resp.Http.r_body in
    Alcotest.(check bool) "metrics carry pool stats" true
      (Json.member "pool" v <> None);
    Alcotest.(check bool) "metrics carry latency histogram" true
      (Json.member "latency" v <> None)
  | Result.Error e -> Alcotest.fail e);
  (match Client.get ~host ~port "/no/such/path" with
  | Result.Ok resp -> Alcotest.(check int) "unknown path is 404" 404 resp.Http.status
  | Result.Error e -> Alcotest.fail e);
  (match Client.request ~host ~port ~meth:"POST" ~path:"/health" () with
  | Result.Ok resp -> Alcotest.(check int) "POST /health is 405" 405 resp.Http.status
  | Result.Error e -> Alcotest.fail e);
  match Client.post_json ~host ~port "/api/v1/timing" "{not json" with
  | Result.Ok resp -> Alcotest.(check int) "bad body is 400" 400 resp.Http.status
  | Result.Error e -> Alcotest.fail e

(* The tentpole invariant: N concurrent identical requests, one computed
   job; every client sees the same table. *)
let test_e2e_concurrent_identical_requests_compute_once () =
  with_temp_dir @@ fun cache_dir ->
  with_server ~workers:2 ~cache_dir @@ fun t ->
  let port = Server.port t in
  let n = 8 in
  let body =
    match Service.make ~mode:"" ~verb:"simulate" ~bench:"fft" ~preset:"C" with
    | Result.Ok r -> Protocol.run_request_body r
    | Result.Error e -> Alcotest.fail e
  in
  let results = Array.make n (Result.Error "unset") in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Client.post_json ~host ~port "/api/v1/simulate" body)
          ())
  in
  List.iter Thread.join threads;
  let bodies =
    Array.to_list results
    |> List.map (function
         | Result.Error e -> Alcotest.fail e
         | Result.Ok (resp : Http.response) ->
           Alcotest.(check int) "every client got 200" 200 resp.Http.status;
           resp.Http.r_body)
  in
  let result_field b =
    match Json.member "result" (parse_ok b) with
    | Some v -> Json.to_string v
    | None -> Alcotest.fail "response without result field"
  in
  let first = result_field (List.hd bodies) in
  List.iter
    (fun b -> Alcotest.(check string) "identical tables" first (result_field b))
    bodies;
  List.iter
    (fun b ->
      match Json.mem_str "origin" (parse_ok b) with
      | Some ("computed" | "coalesced" | "cache") -> ()
      | o -> Alcotest.fail ("bad origin: " ^ Option.value ~default:"?" o))
    bodies;
  let s = Server.pool_stats t in
  Alcotest.(check int) "exactly one job computed" 1 s.Pool.executed;
  Alcotest.(check int) "every request accounted for" n
    (s.Pool.coalesced + s.Pool.cache_hits + 1)

let test_e2e_shutdown_rejects_new_work () =
  let t =
    Server.start
      { Server.default_config with Server.workers = 1; queue_capacity = 4 }
  in
  let port = Server.port t in
  Server.stop t;
  match Client.get ~timeout_s:2. ~host ~port "/health" with
  | Result.Ok (_ : Http.response) ->
    Alcotest.fail "stopped server must not answer"
  | Result.Error (_ : string) -> ()

(* The load report: only its order-independent invariants, never a
   timing.  One job computes the dedup burst (two at most, if the cache
   store races the last arrivals), a full queue answers 429 and nothing
   else, and no level request fails. *)
let test_load_report_invariants () =
  let v = Trips_serve.Load.report ~log:ignore in
  let int path =
    let rec go v = function
      | [] -> Json.as_int v
      | k :: ks -> Option.bind (Json.member k v) (fun v -> go v ks)
    in
    match go v path with
    | Some n -> n
    | None -> Alcotest.fail ("missing " ^ String.concat "." path)
  in
  Alcotest.(check int) "dedup requests" 16 (int [ "dedup"; "requests" ]);
  Alcotest.(check bool) "dedup computes at most twice" true
    (int [ "dedup"; "computed" ] <= 2);
  Alcotest.(check int) "shed requests" 32 (int [ "shed"; "requests" ]);
  Alcotest.(check bool) "a full queue sheds" true (int [ "shed"; "shed" ] >= 1);
  Alcotest.(check int) "shed answers only 200 or 429" 0
    (int [ "shed"; "other" ]);
  match Option.bind (Json.member "levels" v) Json.as_list with
  | Some (_ :: _ as levels) ->
    List.iter
      (fun l ->
        Alcotest.(check (option int)) "no level request fails" (Some 0)
          (Json.mem_int "failed" l))
      levels
  | _ -> Alcotest.fail "report without levels"

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "http",
        [
          Alcotest.test_case "GET roundtrip" `Quick test_http_get_roundtrip;
          Alcotest.test_case "POST body" `Quick test_http_post_body;
          Alcotest.test_case "LF-only head" `Quick test_http_lf_only_head;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_http_malformed;
          Alcotest.test_case "response roundtrip" `Quick
            test_http_response_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_parse_values;
          Alcotest.test_case "rejects" `Quick test_json_parse_rejects;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "routes" `Quick test_protocol_routes;
          Alcotest.test_case "run request validation" `Quick
            test_protocol_parse_run_request;
          Alcotest.test_case "cache keys distinguish requests" `Quick
            test_service_cache_key_distinguishes;
          Alcotest.test_case "one preset parser" `Quick test_preset_spellings;
          Alcotest.test_case "serve accepts every preset spelling" `Quick
            test_service_preset_spellings;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "health, metrics, errors" `Quick
            test_e2e_health_and_metrics;
          Alcotest.test_case "concurrent identical requests compute once"
            `Quick test_e2e_concurrent_identical_requests_compute_once;
          Alcotest.test_case "stopped server refuses connections" `Quick
            test_e2e_shutdown_rejects_new_work;
          Alcotest.test_case "load report invariants" `Quick
            test_load_report_invariants;
        ] );
    ]
