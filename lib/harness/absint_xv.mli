(** Abstract-interpretation payoff sweep.

    For every workload and optimizing preset: the fact counts the global
    abstract interpretation derives, the global-optimization hits they
    buy ({!Trips_compiler.Driver.gstats}), and — for the simple suite
    under the C preset — the end-to-end simulated-cycle delta between
    the global passes on and off.  All sub-results are memoized in
    {!Platforms.Memo} tables, and one {!report} value feeds both the CLI
    report and the experiment table. *)

module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Driver = Trips_compiler.Driver
module Absint = Trips_analysis.Absint

type row = {
  a_bench : string;
  a_preset : Preset.t;
  a_stats : Absint.stats;
  a_diags : Trips_analysis.Diag.t list;  (** deduplicated findings *)
  a_gs : Driver.gstats;
  a_cycles_on : int option;
  a_cycles_off : int option;
  a_refuted : int option;  (** refuted validation reports, with [~validate] *)
}

val hits_text : Driver.gstats -> string
(** ["total (consts/branches/rles/dses/relaxed)"] hits of one program. *)

(** The value the [absint] report and the experiment table both render;
    every total is computed here once. *)
type report = {
  ar_rows : row list;  (** bench-major, presets in given order *)
  ar_validated : bool;
  ar_total_hits : int;
  ar_total_facts : int;  (** const defs + dead branches + sep pairs *)
  ar_refuted : int;
}

val report :
  ?validate:bool ->
  ?cycles:(Preset.t -> Registry.bench -> bool) ->
  Preset.t list -> Registry.bench list -> report
(** One abstract interpretation per (preset, bench), memoized.
    [~validate:true] also runs the translation validator on each
    program; [cycles p b] says which programs also simulate with the
    global passes on and off. *)

val diags : report -> Trips_analysis.Diag.t list
(** Every program's findings. *)

val findings : report -> Trips_analysis.Diag.t list
(** Refutations (one error per refuted program), then {!diags}: what
    the report's exit status is decided on. *)

val to_json : strict:bool -> report -> Trips_util.Json.t
(** The [absint] report that [bench/BENCH_absint.json] gates. *)

val warm : unit -> (unit -> unit) list
(** Per-bench warm thunks for the experiment engine. *)

val crossval : unit -> Trips_util.Table.t
(** The [absint] experiment table. *)
