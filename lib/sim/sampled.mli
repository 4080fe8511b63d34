(** Sampled simulation: exact functional execution with systematic
    sampling of the detailed timing model (the SMARTS methodology
    adapted to block-atomic execution).

    Block instances cycle through detailed-warm, detailed-measure and
    fast-forward phases.  Fast-forward keeps the block predictor and the
    caches training (functional warming) with the clock frozen; each
    measurement interval contributes one cycles-per-block sample.  The
    whole-run cycle estimate is the sample mean scaled by the exact
    total block count, with a Student-t 95% confidence interval.

    Architectural results and functional statistics are always exact.
    Runs too short to bound the error are simulated fully in detail and
    report an exact estimate with CI 0. *)

type estimate = {
  es_cycles : float;        (** estimated whole-run cycles *)
  es_ci95 : float;          (** +/- at 95% confidence *)
  es_intervals : int;       (** measurement intervals used *)
  es_measured_blocks : int; (** block instances timed in detail *)
  es_total_blocks : int;    (** block instances executed (exact) *)
  es_cpb_mean : float;      (** mean measured cycles per block *)
  es_cpb_stddev : float;    (** across-interval standard deviation *)
  es_full : bool;           (** exact full simulation (short run) *)
}

val run :
  ?config:Core.config ->
  ?fuel:int ->
  Trips_edge.Block.program ->
  Trips_tir.Image.t ->
  entry:string ->
  args:Trips_tir.Ty.value list ->
  Core.result * estimate
(** The [Core.result] carries the exact functional statistics; its
    timing covers only the detailed stretches (clock frozen elsewhere) —
    the [estimate] is the headline cycle figure.  When [es_full] is set
    the result is a complete detailed simulation ({!Core.run}) and
    [es_cycles] is exact.  Detailed stretches are timed by
    {!Core.interp_time}. *)
