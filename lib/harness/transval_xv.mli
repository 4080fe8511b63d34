(** Translation-validation sweep over the registered workloads.

    Runs {!Trips_compiler.Driver.validate} (the symbolic per-pass
    validator) at each code-quality preset, and
    {!Trips_analysis.Transval.check_risc_func} over the RISC backend's
    witnessed output, tallying proved / concretized / refuted blocks.
    A clean sweep is the all-paths complement of the golden-output
    differential tests, which only witness executed paths. *)

val validate_edge :
  Trips_workloads.Preset.t ->
  Trips_workloads.Registry.bench ->
  Trips_analysis.Transval.report list
(** Memoized full-pipeline validation (opt, split, formation, regalloc,
    dataflow conversion, scheduling, linking) of one benchmark. *)

val validate_risc :
  Trips_workloads.Registry.bench ->
  Trips_analysis.Transval.report list
(** Memoized validation of the RISC backend's emitted code (per-block
    code ranges plus the prologue) against the post-opt CFG. *)

type cell = {
  c_bench : string;
  c_config : string;  (** preset tag or ["RISC"] *)
  c_summary : Trips_analysis.Transval.summary;
  c_reports : Trips_analysis.Transval.report list;
}

val cell_edge : Trips_workloads.Preset.t -> Trips_workloads.Registry.bench -> cell

(** The value the [transval] report and the experiment table both
    render. *)
type report = {
  tv_cells : cell list;  (** bench-major: each preset, then RISC *)
  tv_total : Trips_analysis.Transval.summary;  (** over every cell *)
}

val report :
  ?presets:Trips_workloads.Preset.t list ->
  ?risc:bool ->
  Trips_workloads.Registry.bench list ->
  report
(** Validate every benchmark at each of [presets] (default all) and,
    with [risc] (default), its RISC code. *)

val findings : report -> Trips_analysis.Diag.t list
(** Every cell's validator findings. *)

val to_json : strict:bool -> report -> Trips_util.Json.t
(** The [transval] report that [bench/BENCH_absint.json] gates. *)

val crossval : unit -> Trips_util.Table.t
(** The benchmark x configuration verdict table over every registered
    workload, with a total row; any refutation renders as [REFUTED:n]. *)
