(* Tests for the parallel experiment engine: the bounded work queue, job
   scheduling and crash isolation, and the on-disk result cache. *)

module Table = Trips_util.Table
module Engine = Trips_engine.Engine
module Workq = Trips_engine.Workq
module Result_cache = Trips_engine.Result_cache

let mk_table tag =
  let t = Table.create ~title:("t-" ^ tag) [ ("k", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ tag; "1" ];
  t

let trivial_job ?cache_key ?warm ?timeout_s ?retries id =
  Engine.job ?cache_key ?warm ?timeout_s ?retries ~id (fun () -> mk_table id)

let render_of = function
  | Engine.Finished t -> Table.render t
  | Engine.Failed { error; _ } -> "FAILED: " ^ error

(* -- Workq ----------------------------------------------------------- *)

let test_workq_fifo () =
  let q = Workq.create ~capacity:4 in
  List.iter (fun i -> ignore (Workq.try_push q i)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Workq.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Workq.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Workq.pop q);
  Workq.close q;
  Alcotest.(check (option int)) "drain before closed-empty" (Some 3) (Workq.pop q);
  Alcotest.(check (option int)) "closed and drained" None (Workq.pop q);
  Alcotest.check_raises "push after close" Workq.Closed (fun () ->
      ignore (Workq.try_push q 9))

(* -- Engine scheduling ------------------------------------------------ *)

let test_engine_more_jobs_than_workers () =
  let n = 32 in
  let jobs = List.init n (fun i -> trivial_job (Printf.sprintf "job%02d" i)) in
  let report = Engine.run ~workers:3 jobs in
  Alcotest.(check int) "all jobs reported" n (List.length report.Engine.job_reports);
  List.iteri
    (fun i (r : Engine.job_report) ->
      Alcotest.(check string)
        "submission order preserved"
        (Printf.sprintf "job%02d" i)
        r.Engine.job_id;
      Alcotest.(check string)
        "result is the job's own table"
        (Table.render (mk_table r.Engine.job_id))
        (render_of r.Engine.outcome))
    report.Engine.job_reports

let test_engine_warm_subjobs_run_before_finalize () =
  (* one worker is the schedule where a run awaiting its own warms would
     hold the only domain they could run on *)
  List.iter
    (fun workers ->
      let warmed = Atomic.make 0 in
      let job =
        Engine.job ~id:"warmy"
          ~warm:(List.init 8 (fun _ () -> Atomic.incr warmed))
          (fun () ->
            (* every warm sub-job has completed by the time run executes *)
            mk_table (string_of_int (Atomic.get warmed)))
      in
      let report = Engine.run ~workers [ job ] in
      match (List.hd report.Engine.job_reports).Engine.outcome with
      | Engine.Finished t ->
        Alcotest.(check string) "run saw all warms"
          (Table.render (mk_table "8"))
          (Table.render t)
      | Engine.Failed { error; _ } -> Alcotest.fail error)
    [ 1; 4 ]

let test_engine_failure_isolated () =
  let jobs =
    [
      trivial_job "ok-before";
      Engine.job ~id:"boom" ~retries:2 (fun () -> failwith "deliberate failure");
      trivial_job "ok-after";
    ]
  in
  let report = Engine.run ~workers:2 jobs in
  (match report.Engine.job_reports with
  | [ a; b; c ] ->
    Alcotest.(check string) "sibling before" (Table.render (mk_table "ok-before"))
      (render_of a.Engine.outcome);
    (match b.Engine.outcome with
    | Engine.Failed { attempts; error } ->
      Alcotest.(check int) "initial try + 2 retries" 3 attempts;
      Alcotest.(check string) "structured reason" "deliberate failure" error
    | Engine.Finished _ -> Alcotest.fail "raising job must fail");
    Alcotest.(check string) "sibling after" (Table.render (mk_table "ok-after"))
      (render_of c.Engine.outcome)
  | _ -> Alcotest.fail "three reports expected");
  Alcotest.(check int) "failed job counts its attempts" 3
    (List.nth report.Engine.job_reports 1).Engine.attempts

let test_engine_warm_failure_surfaces_in_run () =
  (* a crashing warm sub-job must not kill the pool; the job's own run
     decides its fate *)
  let job =
    Engine.job ~id:"warm-crash"
      ~warm:[ (fun () -> failwith "warm crash") ]
      (fun () -> mk_table "survived")
  in
  let report = Engine.run ~workers:2 [ job ] in
  Alcotest.(check string) "job still finishes" (Table.render (mk_table "survived"))
    (render_of (List.hd report.Engine.job_reports).Engine.outcome)

let test_engine_soft_timeout () =
  let job =
    Engine.job ~id:"slow" ~timeout_s:0.01 ~retries:3 (fun () ->
        Unix.sleepf 0.05;
        mk_table "slow")
  in
  let report = Engine.run ~workers:1 [ job ] in
  match (List.hd report.Engine.job_reports).Engine.outcome with
  | Engine.Failed { attempts; error } ->
    Alcotest.(check int) "no retry on timeout" 1 attempts;
    Alcotest.(check bool) "reason names the budget" true
      (String.length error >= 7 && String.sub error 0 7 = "timeout")
  | Engine.Finished _ -> Alcotest.fail "deadline blown, job must fail"

(* -- Result cache ----------------------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trips-cache-test-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let test_cache_roundtrip () =
  with_temp_dir @@ fun dir ->
  let c = Result_cache.open_ dir in
  Alcotest.(check bool) "miss on empty" true
    (Result_cache.find c ~key:"k1" = None);
  let t = mk_table "cached" in
  Result_cache.store c ~key:"k1" t;
  (match Result_cache.find c ~key:"k1" with
  | Some t' -> Alcotest.(check string) "hit round-trips" (Table.render t) (Table.render t')
  | None -> Alcotest.fail "stored entry must hit");
  (* same digest file, different key inside → miss, not a wrong table *)
  Alcotest.(check bool) "other key misses" true
    (Result_cache.find c ~key:"k2" = None)

let test_cache_corrupt_entry_is_miss () =
  with_temp_dir @@ fun dir ->
  let c = Result_cache.open_ dir in
  let oc = open_out_bin (Result_cache.path c ~key:"evil") in
  output_string oc "garbage bytes";
  close_out oc;
  Alcotest.(check bool) "corrupt file reads as miss" true
    (Result_cache.find c ~key:"evil" = None)

let test_engine_cache_hit_skips_run () =
  with_temp_dir @@ fun dir ->
  let cache = Result_cache.open_ dir in
  let runs = Atomic.make 0 and warms = Atomic.make 0 in
  let mk () =
    Engine.job ~id:"exp" ~cache_key:"exp/v1"
      ~warm:[ (fun () -> Atomic.incr warms) ]
      (fun () ->
        Atomic.incr runs;
        mk_table "expensive")
  in
  let first = Engine.run ~workers:2 ~cache [ mk () ] in
  Alcotest.(check int) "first run computes" 1 (Atomic.get runs);
  Alcotest.(check int) "first run misses" 1 first.Engine.cache_misses;
  Alcotest.(check int) "first run has no hits" 0 first.Engine.cache_hits;
  let second = Engine.run ~workers:2 ~cache [ mk () ] in
  Alcotest.(check int) "cache hit skips run" 1 (Atomic.get runs);
  Alcotest.(check int) "cache hit skips warm sub-jobs" 1 (Atomic.get warms);
  Alcotest.(check int) "second run hits" 1 second.Engine.cache_hits;
  let r = List.hd second.Engine.job_reports in
  Alcotest.(check bool) "report marks the hit" true r.Engine.cache_hit;
  Alcotest.(check int) "no attempts on a hit" 0 r.Engine.attempts;
  Alcotest.(check string) "stored table returned"
    (Table.render (mk_table "expensive"))
    (render_of r.Engine.outcome)

(* -- Workq admission / drain ------------------------------------------ *)

let test_workq_try_push () =
  let q = Workq.create ~capacity:2 in
  Alcotest.(check bool) "admitted 1" true (Workq.try_push q 1);
  Alcotest.(check bool) "admitted 2" true (Workq.try_push q 2);
  Alcotest.(check bool) "full sheds" false (Workq.try_push q 3);
  Alcotest.(check int) "shed item not enqueued" 2 (Workq.length q);
  ignore (Workq.pop q);
  Alcotest.(check bool) "slot freed" true (Workq.try_push q 3);
  Workq.close q;
  Alcotest.check_raises "try_push after close" Workq.Closed (fun () ->
      ignore (Workq.try_push q 4))

(* -- Result cache durability ------------------------------------------ *)

let test_cache_sweeps_stale_tmp () =
  with_temp_dir @@ fun dir ->
  let c = Result_cache.open_ dir in
  Result_cache.store c ~key:"keep" (mk_table "keep");
  (* a crash between write and rename leaves a .tmp behind *)
  let tmp = Filename.concat dir "dead.tmp" in
  let oc = open_out_bin tmp in
  output_string oc "torn half-written entry";
  close_out oc;
  let c2 = Result_cache.open_ dir in
  Alcotest.(check bool) "stale tmp swept on open" false (Sys.file_exists tmp);
  Alcotest.(check bool) "committed entry survives the sweep" true
    (Result_cache.find c2 ~key:"keep" <> None)

let test_cache_store_leaves_no_tmp () =
  with_temp_dir @@ fun dir ->
  let c = Result_cache.open_ dir in
  List.iter
    (fun i -> Result_cache.store c ~key:(string_of_int i) (mk_table "x"))
    [ 1; 2; 3 ];
  let tmps =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "rename committed every entry" [] tmps

let test_cache_key_injective () =
  let k parts = Result_cache.key ~parts in
  Alcotest.(check bool) "field shift changes the key" true
    (k [ "ab"; "c" ] <> k [ "a"; "bc" ]);
  Alcotest.(check bool) "separator in a part cannot collide" true
    (k [ "a/b" ] <> k [ "a"; "b" ]);
  Alcotest.(check string) "deterministic" (k [ "x"; "y" ]) (k [ "x"; "y" ])

(* -- Pool: admission, coalescing, cancellation, shutdown -------------- *)

module Pool = Trips_engine.Pool

(* a job that blocks until [gate] opens, so tests control overlap *)
let gated_job gate tag () =
  while not (Atomic.get gate) do
    Unix.sleepf 0.002
  done;
  mk_table tag

let wait_for ?(timeout_s = 5.) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else (
      Unix.sleepf 0.002;
      go ())
  in
  go ()

let test_pool_coalesces_identical_keys () =
  let pool = Pool.create ~workers:2 ~queue_capacity:8 () in
  let gate = Atomic.make false in
  let submit () =
    Pool.submit pool ~cache_key:"k" ~id:"job" (gated_job gate "shared")
  in
  let first = submit () in
  Alcotest.(check bool) "first admitted" true
    (match first with Pool.Admitted _ -> true | _ -> false);
  let rest = List.init 5 (fun _ -> submit ()) in
  List.iter
    (fun a ->
      match a with
      | Pool.Admitted _ -> ()
      | _ -> Alcotest.fail "identical submit not admitted")
    rest;
  Atomic.set gate true;
  let outcomes =
    List.map
      (function
        | Pool.Admitted t -> Pool.await t
        | _ -> Alcotest.fail "unreachable")
      (first :: rest)
  in
  let origins =
    List.map
      (function
        | Pool.Done (_, o) -> o | Pool.Error e -> Alcotest.fail e)
      outcomes
  in
  Alcotest.(check int) "exactly one computed" 1
    (List.length (List.filter (fun o -> o = Pool.Computed) origins));
  Alcotest.(check int) "everyone else coalesced" 5
    (List.length (List.filter (fun o -> o = Pool.Coalesced) origins));
  List.iter
    (function
      | Pool.Done (t, _) ->
        Alcotest.(check string) "one table for all"
          (Table.render (mk_table "shared"))
          (Table.render t)
      | Pool.Error e -> Alcotest.fail e)
    outcomes;
  let s = Pool.stats pool in
  Alcotest.(check int) "stats: executed once" 1 s.Pool.executed;
  Alcotest.(check int) "stats: coalesced" 5 s.Pool.coalesced;
  Pool.shutdown pool

let test_pool_sheds_when_full () =
  let pool = Pool.create ~workers:1 ~queue_capacity:1 () in
  let gate = Atomic.make false in
  (* distinct keys so nothing coalesces: worker occupied + queue of 1 *)
  let submit i =
    Pool.submit pool ~cache_key:(string_of_int i) ~id:"job"
      (gated_job gate (string_of_int i))
  in
  let a = submit 0 in
  Alcotest.(check bool) "worker job admitted" true
    (match a with Pool.Admitted _ -> true | _ -> false);
  Alcotest.(check bool) "worker picked it up" true
    (wait_for (fun () -> (Pool.stats pool).Pool.running = 1));
  let b = submit 1 in
  Alcotest.(check bool) "queue slot admitted" true
    (match b with Pool.Admitted _ -> true | _ -> false);
  let c = submit 2 in
  Alcotest.(check bool) "overflow is shed, not blocked" true (c = Pool.Shed);
  Alcotest.(check int) "stats count the shed" 1 (Pool.stats pool).Pool.shed;
  Atomic.set gate true;
  List.iter
    (function
      | Pool.Admitted t -> (
        match Pool.await t with
        | Pool.Done _ -> ()
        | Pool.Error e -> Alcotest.fail e)
      | _ -> ())
    [ a; b ];
  Pool.shutdown pool

let test_pool_cancel_queued_job_drops () =
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  let gate = Atomic.make false in
  let ran_b = Atomic.make false in
  (match Pool.submit pool ~id:"a" (gated_job gate "a") with
  | Pool.Admitted _ -> ()
  | _ -> Alcotest.fail "a not admitted");
  Alcotest.(check bool) "a running" true
    (wait_for (fun () -> (Pool.stats pool).Pool.running = 1));
  let tb =
    match
      Pool.submit pool ~cache_key:"b" ~id:"b" (fun () ->
          Atomic.set ran_b true;
          mk_table "b")
    with
    | Pool.Admitted t -> t
    | _ -> Alcotest.fail "b not admitted"
  in
  Alcotest.(check bool) "cancel detaches queued job" true (Pool.cancel tb);
  Atomic.set gate true;
  Pool.shutdown pool;
  let s = Pool.stats pool in
  Alcotest.(check bool) "cancelled job never ran" false (Atomic.get ran_b);
  Alcotest.(check int) "stats: dropped" 1 s.Pool.dropped;
  Alcotest.(check int) "stats: cancelled" 1 s.Pool.cancelled

let test_pool_shutdown_drains_and_rejects () =
  let pool = Pool.create ~workers:2 ~queue_capacity:8 () in
  let done_count = Atomic.make 0 in
  let tickets =
    List.init 6 (fun i ->
        match
          Pool.submit pool ~id:(string_of_int i) (fun () ->
              Unix.sleepf 0.01;
              Atomic.incr done_count;
              mk_table (string_of_int i))
        with
        | Pool.Admitted t -> t
        | _ -> Alcotest.fail "not admitted")
  in
  Pool.shutdown pool;
  Alcotest.(check int) "every admitted job drained" 6 (Atomic.get done_count);
  List.iter
    (fun t ->
      match Pool.await t with
      | Pool.Done _ -> ()
      | Pool.Error e -> Alcotest.fail e)
    tickets;
  (match Pool.submit pool ~id:"late" (fun () -> mk_table "late") with
  | Pool.Closed -> ()
  | _ -> Alcotest.fail "submit after shutdown must report Closed");
  Pool.shutdown pool (* idempotent *)

let test_pool_cache_hit_settles_immediately () =
  with_temp_dir @@ fun dir ->
  let cache = Result_cache.open_ dir in
  Result_cache.store cache ~key:"hot" (mk_table "hot");
  let pool = Pool.create ~workers:1 ~cache () in
  (match Pool.submit pool ~cache_key:"hot" ~id:"hot" (fun () ->
       Alcotest.fail "cache hit must not execute")
   with
  | Pool.Admitted t -> (
    match Pool.await t with
    | Pool.Done (table, Pool.Cache_hit) ->
      Alcotest.(check string) "stored table returned"
        (Table.render (mk_table "hot"))
        (Table.render table)
    | Pool.Done _ -> Alcotest.fail "expected Cache_hit origin"
    | Pool.Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "not admitted");
  Alcotest.(check int) "stats: cache hit" 1 (Pool.stats pool).Pool.cache_hits;
  Pool.shutdown pool

let () =
  Alcotest.run "engine"
    [
      ( "workq",
        [
          Alcotest.test_case "fifo and close" `Quick test_workq_fifo;
          Alcotest.test_case "try_push sheds at the bound" `Quick
            test_workq_try_push;
        ] );
      ( "pool",
        [
          Alcotest.test_case "identical keys coalesce onto one job" `Quick
            test_pool_coalesces_identical_keys;
          Alcotest.test_case "full queue sheds explicitly" `Quick
            test_pool_sheds_when_full;
          Alcotest.test_case "cancelled queued job is dropped" `Quick
            test_pool_cancel_queued_job_drops;
          Alcotest.test_case "shutdown drains admitted, rejects new" `Quick
            test_pool_shutdown_drains_and_rejects;
          Alcotest.test_case "cache hit settles without executing" `Quick
            test_pool_cache_hit_settles_immediately;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "queue drains under more jobs than workers" `Quick
            test_engine_more_jobs_than_workers;
          Alcotest.test_case "warm sub-jobs precede finalize" `Quick
            test_engine_warm_subjobs_run_before_finalize;
          Alcotest.test_case "raising job fails, siblings complete" `Quick
            test_engine_failure_isolated;
          Alcotest.test_case "warm crash is not fatal" `Quick
            test_engine_warm_failure_surfaces_in_run;
          Alcotest.test_case "soft timeout" `Quick test_engine_soft_timeout;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/find roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "corrupt entry is a miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "hit returns stored table without run" `Quick
            test_engine_cache_hit_skips_run;
          Alcotest.test_case "stale tmp swept on open" `Quick
            test_cache_sweeps_stale_tmp;
          Alcotest.test_case "store commits atomically" `Quick
            test_cache_store_leaves_no_tmp;
          Alcotest.test_case "key builder is injective" `Quick
            test_cache_key_injective;
        ] );
    ]
