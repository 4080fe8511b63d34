(** Parallel experiment runner: one batch of jobs over a {!Pool}.

    A {!job} is an experiment: an optional content key into the
    {!Result_cache}, a list of independent [warm] sub-jobs (per-benchmark
    simulations that populate the harness memo tables), and a final [run]
    that assembles the result table.  {!run} looks every keyed job up in
    the cache first, so a hit runs nothing.  For each miss it submits
    every warm sub-job to the pool as a keyless job; once a job's warms
    have settled it submits the job's [run] under its cache key, so the
    pool coalesces identical runs; the run stores its own table, so each
    key is looked up once.

    Jobs are crash-isolated: an exception in one job produces a structured
    {!Failed} record while its siblings complete.  Timeouts are soft — a
    running domain cannot be preempted, so a job whose attempt exceeds its
    budget is failed when the attempt returns, without retry.  Exceptions
    retry up to [retries] additional attempts.

    Determinism: parallelism only changes *when* sub-jobs execute, never
    what a job's [run] computes — results are reported in submission
    order, so a parallel run renders byte-identically to a sequential
    one. *)

type job = private {
  id : string;
  cache_key : string option;   (* [None] = never cached *)
  warm : (unit -> unit) list;  (* independent sub-jobs, run concurrently *)
  run : unit -> Trips_util.Table.t;
  timeout_s : float;           (* soft per-attempt budget *)
  retries : int;               (* extra attempts after an exception *)
}

val job :
  ?cache_key:string ->
  ?warm:(unit -> unit) list ->
  ?timeout_s:float ->
  ?retries:int ->
  id:string ->
  (unit -> Trips_util.Table.t) ->
  job
(** Defaults: no cache key, no warm sub-jobs, 900 s budget, 1 retry. *)

type outcome =
  | Finished of Trips_util.Table.t
  | Failed of { attempts : int; error : string }

type job_report = {
  job_id : string;
  outcome : outcome;
  work_s : float;     (* summed durations of this job's tasks *)
  cache_hit : bool;
  attempts : int;     (* 0 for a cache hit *)
}

type report = {
  workers : int;
  wall_s : float;
  cache_hits : int;
  cache_misses : int; (* counted only when a cache is attached *)
  busy_s : float array;           (* per worker *)
  job_reports : job_report list;  (* in submission order *)
}

val run : ?workers:int -> ?cache:Result_cache.t -> job list -> report
(** Execute every job; never raises on job failure.  [workers] defaults
    to 4 (clamped to ≥ 1). *)

val utilization : report -> float
(** Mean fraction of the run's wall-clock the workers spent busy. *)
