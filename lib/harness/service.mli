(** Per-request experiment entry points for the service front door.

    Where {!Experiments} declares whole batch sweeps (one job per paper
    figure), this module exposes the same underlying pipelines at
    per-request granularity: one (verb, benchmark, preset) triple per
    request, each with a content-addressed cache key built from the same
    configuration/workload fingerprint as the batch engine's — so the
    daemon, the batch CLI and any future client all address identical
    {!Trips_engine.Result_cache} entries.

    Handlers are memo-backed ({!Platforms.Memo}), domain-safe, and raise
    only on genuinely broken pipelines; request validation happens in
    {!make} so a malformed request is rejected before any work runs. *)

type verb =
  | Compile     (* compile to EDGE blocks, report static composition *)
  | Lint        (* static analyzer findings over the compiled blocks *)
  | Timing      (* static critical-path cycle prediction *)
  | Simulate    (* cycle-level TRIPS prototype run *)
  | Transval_v  (* translation validation of every compiler pass *)

val verbs : verb list
val verb_name : verb -> string

type request = private {
  verb : verb;
  bench : string;   (* registered benchmark name *)
  preset : string;  (* canonical: O0/C/H/BB (pipeline) or C/H (execution) *)
  mode : string;    (* canonical: "detail", or "sampled" for simulate *)
}

val presets_of_verb : verb -> Trips_workloads.Preset.t list
(** Pipeline verbs take every preset; execution verbs only C and H. *)

val modes_of_verb : verb -> string list
(** Engine variants a verb accepts: ["detail"] everywhere, plus
    ["sampled"] for [simulate] (exact execution, systematically sampled
    timing, confidence-interval cycle estimate). *)

val make :
  mode:string ->
  verb:string -> bench:string -> preset:string -> (request, string) result
(** Validate and canonicalize; the error string is client-presentable.
    [preset] is parsed by {!Trips_workloads.Preset.of_string} and
    stored by name; an empty one defaults to ["C"], an empty [mode] to
    ["detail"]. *)

val id_of : request -> string
(** Stable display id, e.g. ["timing/fft/C"]. *)

val cache_key : request -> string
(** Content identity for the result cache: verb, bench, preset, response
    schema and the shared {!Experiments.content_fingerprint}. *)

val lint :
  Trips_workloads.Preset.t -> Trips_workloads.Registry.bench ->
  Trips_analysis.Diag.t list
(** Static analyzer findings over {!Trips_workloads.Preset.edge_program};
    a compilation failure is one ["compile-fail"] finding. *)

val run : request -> Trips_util.Table.t
(** Execute the request, returning its result as a (cacheable) table. *)
