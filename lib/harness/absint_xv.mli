(** Abstract-interpretation payoff sweep.

    For every workload and optimizing preset: the fact counts the global
    abstract interpretation derives, the global-optimization hits they
    buy ({!Trips_compiler.Driver.gstats}), and — for the simple suite
    under the C preset — the end-to-end simulated-cycle delta between
    the global passes on and off.  All sub-results are memoized through
    {!Platforms.memo}, so the CLI and the experiment share work. *)

module Registry = Trips_workloads.Registry
module Preset = Trips_workloads.Preset
module Driver = Trips_compiler.Driver
module Absint = Trips_analysis.Absint

type row = {
  a_bench : string;
  a_preset : Preset.t;
  a_stats : Absint.stats;
  a_gs : Driver.gstats;
  a_cycles_on : int option;
  a_cycles_off : int option;
}

val row : ?cycles:bool -> Preset.t -> Registry.bench -> row
(** [row ~cycles p b]; [~cycles:true] additionally simulates the
    bench with the global passes on and off. *)

val diags_of : Preset.t -> Registry.bench -> Trips_analysis.Diag.t list
(** Deduplicated [absint] findings for one bench under one preset. *)

val total_hits : Driver.gstats -> int

val warm : unit -> (unit -> unit) list
(** Per-bench warm thunks for the experiment engine. *)

val crossval : unit -> Trips_util.Table.t
(** The [absint] experiment table. *)
