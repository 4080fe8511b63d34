(** Threshold gates over JSON reports.

    A [bench/BENCH_*.json] file lists its gates under [thresholds]; each
    names a report, a dotted path from that report's root, and a [min] or
    [max] bound, e.g.
    [{"report": "sampling", "path": "summary.within_ci", "min": 50}].
    Bounds are inclusive: a value equal to its bound passes. *)

type bound = Min of float | Max of float

type t = { report : string; path : string; bound : bound }

val of_json : Json.t -> (t list, string) result
(** The [thresholds] list of a parsed BENCH file. *)

val lookup : string -> Json.t -> (float, string) result
(** [lookup "a.b" v] is the number under field [b] of field [a] of [v].
    Only object fields are followed, so a same-named key inside a list
    never matches.  A missing field, or a value that is not a number
    ([null] included), is an error. *)

val check : (string * Json.t) list -> t -> (string, string) result
(** [check reports g] checks [g] against the report named [g.report].
    Both outcomes carry a one-line verdict naming the value and the
    bound; an unsupplied report is an [Error]. *)
