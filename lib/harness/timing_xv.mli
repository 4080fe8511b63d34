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

(** The simulator's side of a cross-validated benchmark. *)
type measured = {
  xv_cycles : int;
  xv_error_pct : float;  (** signed, 100*(pred-meas)/meas *)
  xv_mispredicts : int;  (** branch plus call/return *)
}

(** One benchmark of a {!report}. *)
type program = {
  tp_bench : string;
  tp_prediction : Trips_sim.Timing.prediction;
  tp_top : (string * int * Trips_sim.Timing.summary) list;
      (** hottest blocks (label, instances, summary) *)
  tp_measured : measured option;  (** with [~xval] *)
}

(** The value the [timing] report and the experiment table both render. *)
type report = {
  tr_preset : Platforms.quality;
  tr_programs : program list;
  tr_fit : (float * float) option;
      (** Pearson correlation and MAPE of predicted against measured
          cycles over the programs, with [~xval] *)
}

val report :
  top:int -> xval:bool -> Platforms.quality ->
  Trips_workloads.Registry.bench list -> report
(** Predict every benchmark and keep its [top] hottest blocks;
    [~xval:true] also runs the cycle-level simulator on each. *)

val findings : report -> Trips_analysis.Diag.t list
(** Every program's placement findings. *)

val to_json : report -> Trips_util.Json.t
(** The [timing] report that [bench/BENCH_timing.json] gates. *)

val crossval : unit -> Trips_util.Table.t
(** The predicted-vs-measured table over every registered workload, with
    Pearson correlation and MAPE footer rows. *)
