(** The daemon: TCP front door, connection handling, dispatch.

    One accept thread multiplexes the listen socket against a self-pipe
    (so {!request_stop} wakes it instantly); each accepted connection
    gets a systhread running a keep-alive loop; run requests are
    admitted to a shared {!Trips_engine.Pool} of worker domains.  A full
    admission queue answers 429 with [Retry-After] instead of queueing
    without bound; during shutdown new work is answered 503 while
    already-admitted jobs drain to completion. *)

type config = {
  host : string;            (* bind address, default 127.0.0.1 *)
  port : int;               (* 0 = ephemeral; see {!port} *)
  workers : int;            (* pool worker domains *)
  queue_capacity : int;     (* admission queue bound *)
  cache_dir : string option; (* result cache directory, None = no cache *)
  conn_timeout_s : float;   (* per-connection receive/send timeout *)
  verbose : bool;           (* access log on stderr *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, 4 workers, queue 64, no cache, 30 s. *)

type t

val start : config -> t
(** Bind, listen and spawn the accept thread and worker pool.  Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val request_stop : t -> unit
(** Ask the server to stop; returns immediately.  Safe to call from a
    signal handler context via the self-pipe. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain every admitted job, wait
    for open connections to finish their current response, release the
    sockets.  Implies {!request_stop}. *)

val pool_stats : t -> Trips_engine.Pool.stats
