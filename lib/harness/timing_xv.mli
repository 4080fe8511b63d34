(** Cross-validation of the static timing analyzer
    ({!Trips_sim.Timing}) against the cycle-level simulator
    ({!Trips_sim.Core}).

    {!Trips_sim.Timing.predict_program} composes the analyzer's per-block
    max-plus summaries over the functional execution's block trace, with
    the next-block predictor replayed so redirects land exactly where the
    simulator mispredicts.  The remaining model is optimistic (no
    contention, no cache misses, no load flushes), so predictions track
    measured cycles from below. *)

val predict :
  Platforms.quality -> Trips_workloads.Registry.bench ->
  Trips_sim.Timing.prediction
(** Memoized {!Trips_sim.Timing.predict_program} over a registered
    benchmark, at {!Trips_sim.Core.prototype} (the configuration
    {!Platforms.trips} simulates). *)

type row = {
  xv_bench : string;
  xv_predicted : int;
  xv_measured : int;
  xv_error_pct : float;         (** signed, 100*(pred-meas)/meas *)
  xv_blocks : int;
  xv_pred_mispredicts : int;
  xv_sim_mispredicts : int;
}

val rows :
  ?quality:Platforms.quality ->
  Trips_workloads.Registry.bench list ->
  row list

val pearson_of : row list -> float
val mape_of : row list -> float

val crossval : unit -> Trips_util.Table.t
(** The predicted-vs-measured table over every registered workload, with
    Pearson correlation and MAPE footer rows. *)
