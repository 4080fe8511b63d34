(** Registry of every reproduced table and figure.

    [all] enumerates the experiments in paper order.  Each experiment also
    declares its *engine* interface: whether its result is cached, and
    [warm], the per-benchmark sub-jobs the engine may run concurrently
    before [run] assembles the table from the memoized results.  [run]
    alone is always sufficient — warm sub-jobs only populate memo tables.

    A cached experiment's result-cache key is content-addressed: the
    experiment id, a schema number and {!content_fingerprint}, so any
    config or workload change invalidates stored results.  {!to_job}
    computes it, so the fingerprint is paid by the first process that
    submits a cached job and by no other. *)

type experiment = {
  id : string;               (* e.g. "fig3", "table1" *)
  title : string;
  paper_claim : string;      (* the qualitative shape the paper reports *)
  run : unit -> Trips_util.Table.t;
  cache : bool;              (* results go through the result cache under
                                the key {!to_job} computes; [false] =
                                never cached (e.g. fuzzing) *)
  warm : (unit -> unit) list; (* independent per-benchmark sub-jobs *)
}

val all : experiment list

val content_fingerprint : unit -> string
(** The shared configuration/workload digest every cache key embeds:
    a Marshal digest of all modeled platform configurations and the full
    workload set, computed on first use (a few milliseconds: the
    workloads' input arrays are packed {!Trips_tir.Ast.Init} strings) and
    kept for the life of the process.  Exposed so other front doors (the
    {!Service} request handlers, the serve daemon) address the same
    {!Trips_engine.Result_cache} entries with the same content identity. *)

val find : string -> experiment
(** @raise Not_found for unknown ids. *)

val find_opt : string -> experiment option

val to_job : experiment -> Trips_engine.Engine.job
(** The engine job for an experiment ({!Trips_engine.Engine.job}'s default
    budget and retries), with its cache key when [cache] is set. *)

val meta : experiment -> Trips_engine.Artifacts.meta
(** Manifest metadata (title, paper claim) for the artifact store. *)
