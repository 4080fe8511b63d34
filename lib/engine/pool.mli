(** The Domain worker pool, with admission control, in-flight request
    coalescing and result-cache integration.

    It is the only scheduler in the program.  A service process keeps
    one pool alive for its lifetime and admits requests one at a time;
    {!Engine.run} creates one per batch, sized so that no submit is
    shed, submits the batch's tasks, awaits them and shuts it down:

    - {b Admission / back-pressure}: the submission queue is bounded and
      {!submit} never blocks — when the queue is full the job is {!Shed}
      and the caller reports explicit back-pressure (an HTTP 429)
      instead of hanging.
    - {b In-flight dedup}: jobs carrying a content-addressed [cache_key]
      (the same keys the {!Result_cache} uses) coalesce — a submit whose
      key is already queued or running attaches to that job instead of
      enqueueing a second copy, and every attached ticket receives the
      one result.
    - {b Cache}: with a cache attached, a submit whose key is already on
      disk settles immediately ({!Cache_hit}); computed results are
      written back before the job settles, so a request arriving just
      after completion hits disk instead of recomputing.
    - {b Graceful shutdown}: {!shutdown} stops admission, lets the
      workers drain every admitted job, and joins them — no accepted
      work is lost.

    All operations are safe to call from any thread or domain. *)

type t

type origin =
  | Computed   (* this ticket's submit enqueued the job *)
  | Cache_hit  (* served from the result cache, no job ran *)
  | Coalesced  (* attached to an identical in-flight job *)

val origin_name : origin -> string

type outcome =
  | Done of Trips_util.Table.t * origin
  | Error of string  (* the job raised; exception text *)

type ticket
(** One requester's handle on a (possibly shared) job. *)

type admission =
  | Admitted of ticket
  | Shed     (* queue full — explicit back-pressure, nothing enqueued *)
  | Closed   (* pool shut down *)

val create :
  ?workers:int -> ?queue_capacity:int -> ?cache:Result_cache.t -> unit -> t
(** Spawn the worker domains ([workers] defaults to 4, clamped ≥ 1);
    [queue_capacity] bounds the admission queue (default 64). *)

val submit :
  t -> ?cache_key:string -> id:string -> (unit -> Trips_util.Table.t) ->
  admission
(** Non-blocking admission of one job.  [cache_key] enables coalescing
    and caching; jobs without one always execute.  Never raises on a
    full queue or closed pool — the [admission] says what happened. *)

val await : ticket -> outcome
(** Block until the ticket's job settles (immediately for cache hits). *)

val cancel : ticket -> bool
(** Detach this requester.  [true] = detached before the result was
    delivered: a queued job whose last requester cancels is dropped
    unexecuted when a worker reaches it; a running job cannot be
    preempted and completes (feeding the cache), but this ticket no
    longer consumes it.  [false] = already settled. *)

type stats = {
  workers : int;
  queued : int;       (* jobs admitted, not yet picked up *)
  running : int;      (* jobs executing right now *)
  submitted : int;    (* every Admitted ticket, including coalesced *)
  executed : int;     (* jobs a worker ran to completion *)
  failed : int;       (* jobs that raised *)
  shed : int;         (* submissions rejected by the full queue *)
  cache_hits : int;   (* tickets settled from the result cache *)
  coalesced : int;    (* tickets attached to an in-flight job *)
  cancelled : int;    (* tickets detached by [cancel] *)
  dropped : int;      (* queued jobs skipped: every requester cancelled *)
  busy_s : float;     (* summed worker execution time *)
  worker_busy_s : float array;  (* the same, per worker *)
}

val stats : t -> stats

val shutdown : t -> unit
(** Graceful: reject new submissions, drain every admitted job, join the
    workers.  Idempotent; concurrent [await]s settle normally. *)
