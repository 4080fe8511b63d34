(** Differential fuzzing as a harness experiment.

    Registers a fixed-seed sweep under the default
    {!Trips_fuzz.Oracle.make} (every check, the static-timing corridor
    included) as the cache-bypassed [fuzz] experiment: per-seed warm
    sub-jobs fan across the engine's worker domains, and {!crossval}
    renders the batch {!Trips_fuzz.Batch.plan}'s [finish] assembles
    (backfilling sequentially any seed warm never ran). *)

val warm : unit -> (unit -> unit) list
val crossval : unit -> Trips_util.Table.t
