(** Closed-loop load benchmark for the trips_serve daemon.

    Three phases against in-process servers, so no process management is
    needed:

    - dedup: 16 identical concurrent requests against a 1-worker cold
      server; exactly one job computes, the rest coalesce onto it or hit
      the cache it fills.
    - levels: a warmed 4-worker server swept at 1, 4 and 8 closed-loop
      clients of 20 requests each over a mixed verb/bench spec list;
      throughput and latency percentiles per level.
    - shed: 32 concurrent distinct cold requests against a 1-worker,
      2-deep-queue server; the overflow must come back as explicit 429s,
      not hang. *)

val report : log:(string -> unit) -> Trips_util.Json.t
(** Runs the three phases and returns the report: [schema], [dedup],
    [levels], [shed], [peak_throughput_rps], [peak_p50_s], [peak_p99_s]
    and [sweep_cache_hit_rate] (the thresholds in [bench/BENCH_serve.json]
    gate it).  [log] receives one progress line per phase and level. *)
