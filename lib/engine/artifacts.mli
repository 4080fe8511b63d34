(** Structured artifact store for engine runs.

    [write_run ~dir] materializes every finished table under [dir] in all
    three formats ([<id>.txt] aligned ASCII, [<id>.json], [<id>.csv]) and
    writes a [manifest.json] recording, per job: status (ok / cached /
    failed), the failure message if any, attempts, summed task wall-clock,
    and the artifact files — plus run-level worker count, wall-clock,
    cache hit/miss totals and per-worker busy time. *)

type meta = { id : string; title : string; note : string }

type format = Ascii | Json_fmt | Csv

val format_name : format -> string

val render : format -> Trips_util.Table.t -> string

val write_run :
  dir:string -> metas:meta list -> report:Engine.report -> string
(** Returns the manifest path.  [metas] supplies titles for the manifest;
    jobs without a meta entry get a null title. *)
