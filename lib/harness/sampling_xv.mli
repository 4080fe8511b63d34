(** Accuracy cross-validation of the sampled simulator
    ({!Trips_sim.Sampled}) against the full detailed simulator
    ({!Trips_sim.Core}).

    For every registered workload the sampled estimator's whole-run
    cycle estimate and 95% confidence interval are compared with the
    exact cycle count of a full detailed run.  The methodology's own
    claim is what's tested: the true count should fall inside the
    reported interval on almost every run (systematic sampling can
    produce a tight-but-biased interval on periodic workloads, so the
    gate asks for most, not all). *)

type row = {
  sx_bench : string;
  sx_actual : int;       (** full detailed simulation cycles *)
  sx_estimate : float;   (** sampled estimate *)
  sx_ci95 : float;       (** +/- at 95% confidence *)
  sx_intervals : int;    (** measurement intervals used *)
  sx_full : bool;        (** fell back to exact full simulation *)
  sx_error_pct : float;  (** signed, 100*(est-actual)/actual *)
  sx_within : bool;      (** |est - actual| <= ci95 *)
}

val estimate :
  Platforms.quality -> Trips_workloads.Registry.bench -> Trips_sim.Sampled.estimate
(** Memoized sampled run over a registered benchmark at
    {!Trips_sim.Core.prototype}. *)

(** The value the [sampling] report and the experiment table both
    render. *)
type report = {
  sr_preset : Platforms.quality;
  sr_rows : row list;
  sr_within : int;  (** workloads whose true cycle count is inside the CI *)
  sr_mean_abs_error_pct : float;  (** mean absolute estimate error *)
}

val report : Platforms.quality -> Trips_workloads.Registry.bench list -> report

val to_json : report -> Trips_util.Json.t
(** The [sampling] report that [bench/BENCH_sim.json] gates. *)

val table : report -> Trips_util.Table.t
(** The rows as a table with within-CI and mean-error footers. *)

val crossval : unit -> Trips_util.Table.t
(** {!table} over every registered workload at C. *)
